package noc

import (
	"strconv"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// telemetryState carries the fabric's optional instrumentation; nil
// disables everything at the cost of one pointer test per event.
type telemetryState struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer
	mon *telemetry.MonitorSet

	// multi marks a fabric spanning >1 concurrent kernel partitions.
	// Monitors, tracers and per-flow histograms are single-writer
	// structures, so in this mode the per-event hooks are disabled and
	// only the registry counters are kept — published at barrier time
	// from the per-router accumulators via SyncCounters instead of
	// incremented on the hot path.
	multi bool

	cDelivered *telemetry.Counter
	cFlitHops  *telemetry.Counter

	// latHists caches per-flow delivery-latency histograms
	// ("noc.latency.<flow>", submission to tail-flit ejection, ps) so
	// the steady-state delivery path skips the registry's lock+map.
	// Opt-in (latOn) so default metrics dumps keep their pre-auditor
	// byte layout.
	latOn    bool
	latHists map[string]*telemetry.Histogram

	// mons caches each flow's "noc:<flow>" monitor by flow label, so
	// the per-packet hooks skip building the key and the set's
	// lock+map.
	mons map[string]*telemetry.Monitor
}

// monitor returns (resolving on the flow's first packet) its monitor,
// nil without a monitor set.
func (ts *telemetryState) monitor(flow string) *telemetry.Monitor {
	if ts.mon == nil {
		return nil
	}
	m := ts.mons[flow]
	if m == nil {
		m = ts.mon.Monitor("noc:" + flow)
		ts.mons[flow] = m
	}
	return m
}

// latHist returns (creating on first delivery) the flow's
// delivery-latency histogram, nil unless enabled.
func (ts *telemetryState) latHist(flow string) *telemetry.Histogram {
	if !ts.latOn || ts.reg == nil {
		return nil
	}
	h := ts.latHists[flow]
	if h == nil {
		h = ts.reg.Histogram("noc.latency." + flow)
		ts.latHists[flow] = h
	}
	return h
}

// EnableFlowLatencyHistograms arms per-flow delivery-latency
// histograms (registry keys "noc.latency.<flow>"). Off by default so
// uninstrumented and pre-auditor metric dumps stay byte-identical; the
// runtime auditor switches it on. Requires SetTelemetry with a
// registry first.
func (n *NoC) EnableFlowLatencyHistograms() {
	if n.tel != nil && !n.tel.multi {
		n.tel.latOn = true
	}
}

// SetTelemetry attaches a metrics registry, tracer, and PMU-style
// monitor set to the fabric. Any argument may be nil; with all nil the
// fabric runs uninstrumented.
//
// On a fabric spanning multiple kernel partitions the per-event hooks
// (monitors, tracer spans, per-flow histograms) stay disabled — they
// are single-writer structures and routers on concurrent partitions
// would race on them. The registry counters are still registered, but
// are fed from the per-router accumulators at barrier time: call
// SyncCounters after Run/RunUntil (i.e. at snapshot time) to publish
// them. Merged totals equal the sequential fabric's exactly.
func (n *NoC) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer, mon *telemetry.MonitorSet) {
	if reg == nil && tr == nil && mon == nil {
		n.tel = nil
		return
	}
	multi := n.par != nil && n.par.Partitions() > 1
	ts := &telemetryState{reg: reg, tr: tr, mon: mon, multi: multi,
		latHists: make(map[string]*telemetry.Histogram), mons: make(map[string]*telemetry.Monitor)}
	if reg != nil {
		ts.cDelivered = reg.Counter("noc.delivered")
		ts.cFlitHops = reg.Counter("noc.flit_hops")
	}
	n.tel = ts
}

// SyncCounters publishes the per-router delivered/flit-hop
// accumulators into the registry counters. It is required (and only
// meaningful) on a multi-partition fabric, where the hot path never
// touches the shared counters; call it at a barrier — outside
// Run/RunUntil — before reading or dumping the registry. On a
// sequential fabric the counters are maintained live and this is a
// no-op.
func (n *NoC) SyncCounters() {
	ts := n.tel
	if ts == nil || !ts.multi || ts.reg == nil {
		return
	}
	ts.cDelivered.Store(n.Delivered())
	ts.cFlitHops.Store(n.FlitHops())
}

// traceSubmit records a packet entering an NI queue.
func (n *NoC) traceSubmit(p *Packet) {
	ts := n.tel
	if ts == nil || ts.multi {
		return
	}
	ts.monitor(flowLabel(p)).TxnStart()
}

// traceDeliver records a tail-flit ejection: a per-flow span covering
// submission to delivery, window bandwidth, and outstanding count.
func (n *NoC) traceDeliver(p *Packet, at sim.Time) {
	ts := n.tel
	if ts == nil || ts.multi {
		return
	}
	ts.cDelivered.Inc()
	flow := flowLabel(p)
	m := ts.monitor(flow)
	m.AddBytes(at, p.Bytes)
	m.TxnEnd()
	ts.latHist(flow).Record(int64(at - p.Submitted))
	if ts.tr != nil {
		ts.tr.Span("noc", flow, p.Submitted, at,
			"src", p.Src.String(), "dst", p.Dst.String(),
			"bytes", strconv.Itoa(p.Bytes))
	}
}

// flowLabel names a packet's flow for monitor and trace keys.
func flowLabel(p *Packet) string {
	if p.Flow != "" {
		return p.Flow
	}
	return "anon"
}

// ResetCounters zeroes the fabric's accumulated counters — delivered
// packets, flit hops, and every NI's submitted/injected counts — so a
// warm network can meter a fresh measurement interval. In-flight
// packets and buffer occupancy are untouched.
func (n *NoC) ResetCounters() {
	for _, r := range n.routers {
		r.delivered = 0
		r.flitHops = 0
	}
	for _, ni := range n.nis {
		ni.submitted = 0
		ni.injected = 0
	}
}
