package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simWorkload is a socsim scenario run back to back on fresh platforms.
// One op is one run: BuildPlatform and EnableAudit, then StartApps and
// RunFor over the workload's simulated span, then the metrics snapshot.
type simWorkload struct {
	id   string
	spec func(seed uint64, span sim.Duration) core.RunSpec
	// span is the simulated time per run, sized so that one run takes
	// 0.1–0.2 host seconds and a 10 s run measures fifty or more.
	span sim.Duration
}

func (w simWorkload) name() string { return w.id }

func legacySpec(protected bool) func(uint64, sim.Duration) core.RunSpec {
	return func(seed uint64, span sim.Duration) core.RunSpec {
		return core.RunSpec{
			Hogs: 6, HogClass: trace.Infotainment, Duration: span, Seed: seed, Telemetry: true,
			DSU: protected, MemGuard: protected, MPAM: protected,
		}
	}
}

func bigmeshSpec(partitions int) func(uint64, sim.Duration) core.RunSpec {
	return func(seed uint64, span sim.Duration) core.RunSpec {
		s := core.BigMeshSpec(partitions)
		s.Seed, s.Duration, s.Telemetry = seed, span, true
		return s
	}
}

var (
	legacyContended = simWorkload{id: "legacy-contended", spec: legacySpec(false), span: sim.Millisecond}
	legacyProtected = simWorkload{id: "legacy-protected", spec: legacySpec(true), span: 10 * sim.Millisecond}
	bigmesh         = simWorkload{id: "bigmesh", spec: bigmeshSpec(0), span: 50 * sim.Microsecond}
	bigmeshP2       = simWorkload{id: "bigmesh-p2", spec: bigmeshSpec(2), span: 50 * sim.Microsecond}
)

// simRun is one measured run.
type simRun struct {
	build, audit, run, snapshot time.Duration // run is StartApps+RunFor
	threads                     int           // kernel partitions (1 sequential)
	fp                          fingerprint
	model                       map[string]float64
}

func (r simRun) setup() time.Duration { return r.build + r.audit }
func (r simRun) wall() time.Duration  { return r.setup() + r.run + r.snapshot }

// simOnce runs a spec once on a fresh platform. With prof set, a CPU
// profile of StartApps+RunFor is written there. A panic fails the run.
func simOnce(spec core.RunSpec, prof string) (r simRun, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	// Collect the previous run's garbage first, as a fresh socsim
	// process would not carry it.
	runtime.GC()
	t0 := time.Now()
	p, crit, err := core.BuildPlatform(spec)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	aud, err := p.EnableAudit(core.AuditOptions{})
	if err != nil {
		return r, err
	}
	t2 := time.Now()
	if prof != "" {
		f, err := os.Create(prof)
		if err != nil {
			return r, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return r, err
		}
		defer pprof.StopCPUProfile() // on a panic; a no-op after the stop below
	}
	p.StartApps()
	p.RunFor(spec.Duration)
	t3 := time.Now()
	if prof != "" {
		pprof.StopCPUProfile()
	}
	r = simRun{build: t1.Sub(t0), audit: t2.Sub(t1), run: t3.Sub(t2), threads: 1}
	p.SnapshotMetrics()
	var om bytes.Buffer
	if err := p.Telemetry().Registry.WriteOpenMetrics(&om); err != nil {
		return r, err
	}
	r.snapshot = time.Since(t3)
	st := crit.Stats()
	r.fp = fingerprint{
		CritIssued: st.Issued, CritMeanPS: int64(st.MeanReadLatency), CritP95PS: int64(st.P95ReadLatency),
		CritMaxPS: int64(st.MaxReadLatency), RowHitRate: p.RowHitRate(),
		Violations: aud.TotalViolations(), OpenMetrics: fnv64a(om.Bytes()),
	}
	if h := aud.App(crit.Name()); h != nil {
		r.fp.CritViolations = h.Violations()
	}
	var observed uint64
	for _, s := range aud.Snapshot() {
		observed += s.Observed
	}
	events := p.Eng.Fired()
	var rounds uint64
	if k := p.Kernel(); k != nil {
		events, rounds, r.threads = k.Fired(), k.Rounds(), k.Partitions()
	}
	r.model = map[string]float64{
		"sim.events":           float64(events),
		"sim.rounds":           float64(rounds),
		"noc.flit_hops":        omValue(om.Bytes(), "noc_flit_hops_total"),
		"dram.row_hit_rate":    r.fp.RowHitRate,
		"memguard.overhead":    omValue(om.Bytes(), "memguard_overhead_ns"),
		"mpam.utilization":     omValue(om.Bytes(), "mpam_utilization"),
		"audit.observed":       float64(observed),
		"audit.violations":     float64(r.fp.Violations),
		"netcalc.cache_hits":   omValue(om.Bytes(), "netcalc_cache_hits_total"),
		"netcalc.cache_misses": omValue(om.Bytes(), "netcalc_cache_misses_total"),
		"crit.p95":             st.P95ReadLatency.Nanoseconds(),
		"crit.max":             st.MaxReadLatency.Nanoseconds(),
	}
	return r, nil
}

// run measures a sim workload for the run's wall time and reports the
// medians over its runs. Every run's fingerprint must equal the
// expected one: the committed fingerprint at the default seed and span,
// a sequential run of the same spec when the spec runs the parallel
// kernel (which must reproduce it exactly at any seed), and otherwise
// the first run's. In a traced run, every other op is profiled and the
// rest give the untraced baseline.
func (w simWorkload) run(ctx context.Context, p params) (*outcome, error) {
	span := w.span
	if p.span > 0 {
		span = p.span
	}
	spec := w.spec(p.seed, span)
	want, err := committedFingerprint(w.id, p.seed, span == w.span)
	if err != nil {
		return nil, err
	}
	if spec.KernelPartitions > 0 {
		seq := spec
		seq.KernelPartitions = 0
		ref, err := simOnce(seq, "")
		if err != nil {
			return nil, fmt.Errorf("sequential reference run: %w", err)
		}
		if want != nil && ref.fp != *want {
			return nil, fmt.Errorf("sequential reference run %v differs from the committed fingerprint %v", ref.fp, *want)
		}
		want = &ref.fp
	}
	var dir string
	if p.trace {
		if dir, err = os.MkdirTemp(p.tmp, "bench-prof-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	out := newOutcome()
	var plain, traced []simRun
	var profiles []string
	minRuns := 3
	if p.trace {
		minRuns = 4
	}
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < p.measured(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prof := ""
		if p.trace && i%2 == 1 {
			prof = filepath.Join(dir, fmt.Sprintf("run%d.prof", i))
		}
		r, err := simOnce(spec, prof)
		out.attempted++
		switch {
		case err != nil:
			out.failed++
			fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.id, i, err)
			continue
		case want == nil:
			want = &r.fp
		case r.fp != *want:
			out.failed++
			fmt.Fprintf(os.Stderr, "bench: %s run %d: output %v, want %v\n", w.id, i, r.fp, *want)
			continue
		}
		if prof != "" {
			traced = append(traced, r)
			profiles = append(profiles, prof)
		} else {
			plain = append(plain, r)
		}
	}
	if len(plain) == 0 {
		return out, nil
	}

	v := out.values
	run := medianOf(plain, func(r simRun) time.Duration { return r.run })
	v["throughput"] = span.Microseconds() / run.Seconds()
	v["latency_ms"] = ms(medianOf(plain, simRun.wall))
	if v["peak_rss_mb"], err = peakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	walls := make([]time.Duration, len(plain))
	for i, r := range plain {
		walls[i] = r.wall()
	}
	v["latency_tail_ms"] = quantile(durations(walls), tailQuantile(len(plain)))
	for k, x := range plain[0].model {
		v[k] = x
	}
	v["sim.events_per_s"] = plain[0].model["sim.events"] / run.Seconds()
	all := append(plain, traced...)
	var setup, auditT, snap, wall time.Duration
	for _, r := range all {
		setup += r.setup()
		auditT += r.audit
		snap += r.snapshot
		wall += r.wall()
	}
	v["setup_s"] = medianOf(all, simRun.setup).Seconds()
	v["audit.setup_pct"] = 100 * float64(auditT) / float64(setup)
	v["telemetry.snapshot_pct"] = 100 * float64(snap) / float64(wall)

	if p.trace && len(traced) > 0 {
		self, err := attribute(ctx, profiles...)
		if err != nil {
			return nil, err
		}
		var profiled time.Duration
		for _, r := range traced {
			profiled += r.run
		}
		layerMetrics(self, len(traced), traced[0].threads, profiled, v)
		v["trace.overhead"] = float64(medianOf(traced, func(r simRun) time.Duration { return r.run })) / float64(run)
	}
	return out, nil
}

// medianOf returns the median of the runs' f.
func medianOf(rs []simRun, f func(simRun) time.Duration) time.Duration {
	ds := make([]float64, len(rs))
	for i, r := range rs {
		ds[i] = float64(f(r))
	}
	return time.Duration(median(ds))
}
