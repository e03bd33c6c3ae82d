package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EnableTelemetry builds a telemetry suite and threads it through
// every assembled subsystem: the simulation kernel (event counters and
// dispatch-rate samples), the DRAM controllers (per-bank service
// spans, refresh, mode switches), the mesh (per-flow delivery spans
// and PMU-style monitors), MemGuard (stall spans, depletion events,
// per-entity monitors), the per-cluster caches, and — if already
// enabled — the MPAM channel arbiters. withTrace additionally records
// a Chrome trace_event timeline; metrics and monitors are always on.
//
// On a clustered platform the single-writer instruments (the event
// tracer, the engine observer, the PMU monitor windows, per-flow
// histograms) stay off — partitions would race on them and their
// sample order is schedule-dependent — and the wiring keeps only the
// atomic counters and snapshot-time gauges, under per-channel
// ("dram.chN.") and per-cluster ("l3.clusterN.") names. Those commute,
// so metric dumps stay byte-identical across partition counts.
//
// Call once, before traffic starts. Returns the suite for dumping.
func (p *Platform) EnableTelemetry(withTrace bool) (*telemetry.Suite, error) {
	if p.tel != nil {
		return nil, fmt.Errorf("core: telemetry already enabled")
	}
	if withTrace && p.distributed {
		return nil, fmt.Errorf("core: event tracing is single-writer; unsupported on a clustered platform")
	}
	window := sim.Millisecond
	if p.cfg.MemGuard != nil {
		window = p.cfg.MemGuard.Period
	}
	s := telemetry.NewSuite(withTrace, window)
	p.tel = s

	if p.distributed {
		for i, ch := range p.chans {
			ch.ctrl.SetTelemetryPrefixed(s.Registry, nil, fmt.Sprintf("dram.ch%d", i))
		}
		p.mesh.SetTelemetry(s.Registry, nil, nil)
		for _, reg := range p.regs {
			if reg != nil {
				// Fixed counter names merge across clusters; the atomic
				// increments commute, so the totals are deterministic.
				reg.SetTelemetry(s.Registry, nil, nil)
			}
		}
		for i, cl := range p.clusters {
			cl.L3().SetTelemetry(s.Registry, fmt.Sprintf("l3.cluster%d", i))
			if l2 := cl.L2(); l2 != nil {
				l2.SetTelemetry(s.Registry, fmt.Sprintf("l2.cluster%d", i))
			}
		}
		for _, ch := range p.chans {
			if ch.arb != nil {
				ch.arb.SetTelemetry(s.Registry, nil, nil)
			}
		}
		return s, nil
	}

	p.Eng.SetObserver(telemetry.NewEngineObserver(s.Registry, s.Tracer, 0))
	p.mem.SetTelemetry(s.Registry, s.Tracer)
	p.mesh.SetTelemetry(s.Registry, s.Tracer, s.Monitors)
	if p.reg != nil {
		p.reg.SetTelemetry(s.Registry, s.Tracer, s.Monitors)
	}
	for i, cl := range p.clusters {
		cl.L3().SetTelemetry(s.Registry, fmt.Sprintf("l3.cluster%d", i))
		if l2 := cl.L2(); l2 != nil {
			l2.SetTelemetry(s.Registry, fmt.Sprintf("l2.cluster%d", i))
		}
	}
	if p.mpamArb != nil {
		p.mpamArb.SetTelemetry(s.Registry, s.Tracer, s.Monitors)
	}
	return s, nil
}

// Telemetry returns the platform's suite (nil when disabled).
func (p *Platform) Telemetry() *telemetry.Suite { return p.tel }

// SnapshotMetrics folds snapshot-style state into the registry: live
// latency histograms (adopted, not copied), per-app counters, DRAM
// aggregate ratios (per channel and platform-wide), MemGuard
// regulation outcomes, and the PMU monitors' window readings. Call it
// at dump time — outside Run/RunUntil, so a partitioned fabric is at a
// barrier; it is idempotent.
func (p *Platform) SnapshotMetrics() {
	s := p.tel
	if s == nil || s.Registry == nil {
		return
	}
	reg := s.Registry
	now := p.Eng.Now()

	// Live events only: Pending() also counts lazily-reclaimed canceled
	// records, which would make the gauge drift with kernel internals.
	// Summed over partitions when the platform runs on a kernel (equal
	// to the home engine's count on the legacy shape, where every other
	// partition is empty).
	pending := 0
	if p.par != nil {
		for i := 0; i < p.plan.Partitions; i++ {
			pending += p.par.Partition(i).PendingLive()
		}
	} else {
		pending = p.Eng.PendingLive()
	}
	reg.Gauge("sim.events_pending").Set(float64(pending))

	for _, a := range p.order {
		name := a.cfg.Name
		st := a.Stats()
		prefix := "app." + name + "."
		reg.Gauge(prefix + "issued").Set(float64(st.Issued))
		reg.Gauge(prefix + "l3_hits").Set(float64(st.L3Hits))
		reg.Gauge(prefix + "l3_misses").Set(float64(st.L3Misses))
		reg.Gauge(prefix + "bytes_moved").Set(float64(st.BytesMoved))
		if h := a.ReadLatencyHistogram(); h != nil {
			reg.RegisterHistogram(prefix+"read_latency_ps", h)
		}
		if a.mg != nil {
			mst := a.mg.Stats()
			if mst.Requests > 0 {
				reg.Gauge(prefix + "memguard_throttled_ns").Set(mst.ThrottledTime.Nanoseconds())
				reg.Gauge(prefix + "memguard_throttle_events").Set(float64(mst.ThrottleEvents))
			}
		}
	}

	if p.distributed {
		for i, ch := range p.chans {
			prefix := fmt.Sprintf("dram.ch%d", i)
			reg.Gauge(prefix + ".row_hit_rate").Set(ch.ctrl.Stats().RowHitRate())
			ch.ctrl.RegisterLatencyHistogramsPrefixed(reg, prefix)
		}
		reg.Gauge("dram.row_hit_rate").Set(p.RowHitRate())
	} else {
		dst := p.mem.Stats()
		reg.Gauge("dram.row_hit_rate").Set(dst.RowHitRate())
		p.mem.RegisterLatencyHistograms(reg)
	}

	p.mesh.SyncCounters()
	reg.Gauge("noc.delivered_total").Set(float64(p.mesh.Delivered()))
	reg.Gauge("noc.flit_hops_total").Set(float64(p.mesh.FlitHops()))

	if p.distributed {
		var total sim.Duration
		seen := false
		for k, r := range p.regs {
			if r == nil {
				continue
			}
			seen = true
			total += r.Overhead()
			reg.Gauge(fmt.Sprintf("memguard.cluster%d.overhead_ns", k)).Set(r.Overhead().Nanoseconds())
		}
		if seen {
			reg.Gauge("memguard.overhead_ns").Set(total.Nanoseconds())
		}
		for i, ch := range p.chans {
			if ch.arb != nil {
				reg.Gauge(fmt.Sprintf("mpam.ch%d.utilization", i)).Set(ch.arb.Utilization())
			}
		}
	} else {
		if p.reg != nil {
			reg.Gauge("memguard.overhead_ns").Set(p.reg.Overhead().Nanoseconds())
		}
		if p.mpamArb != nil {
			reg.Gauge("mpam.utilization").Set(p.mpamArb.Utilization())
		}
	}
	if p.aud != nil {
		p.aud.PublishMetrics(reg)
	}
	if p.ncCache != nil {
		// Mirror the analytic-plane cache counters (monotone per run;
		// the cache is per-platform so values are deterministic for a
		// given scenario and seed).
		st := p.ncCache.Stats()
		reg.Counter("netcalc.cache_hits").Store(st.Hits)
		reg.Counter("netcalc.cache_misses").Store(st.Misses)
		reg.Counter("netcalc.interned_curves").Store(st.InternedCurves)
	}
	s.Monitors.Snapshot(reg, now)
}
