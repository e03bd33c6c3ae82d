package mpam

import (
	"strconv"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// telemetryState is the arbiter's optional instrumentation; nil
// disables it.
type telemetryState struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer
	mon *telemetry.MonitorSet

	cDispatches *telemetry.Counter
	// parts caches each PARTID's key and monitor, indexed by PARTID and
	// resolved on its first transfer, so the per-transfer hooks neither
	// format a key nor take the monitor set's lock and map.
	parts []partTel
}

// partTel is one PARTID's resolved instrumentation.
type partTel struct {
	key string             // "partid:N"; empty until the first transfer
	mon *telemetry.Monitor // nil without a monitor set
}

// part returns id's instrumentation, resolving it on first use.
func (ts *telemetryState) part(id PARTID) *partTel {
	if int(id) >= len(ts.parts) {
		ts.parts = append(ts.parts, make([]partTel, int(id)+1-len(ts.parts))...)
	}
	pt := &ts.parts[id]
	if pt.key == "" {
		pt.key = "partid:" + strconv.Itoa(int(id))
		pt.mon = ts.mon.Monitor(pt.key)
	}
	return pt
}

// SetTelemetry attaches a metrics registry, tracer, and PMU-style
// monitor set to the arbiter. Any argument may be nil; all nil
// disables instrumentation.
func (a *Arbiter) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer, mon *telemetry.MonitorSet) {
	if reg == nil && tr == nil && mon == nil {
		a.tel = nil
		return
	}
	ts := &telemetryState{reg: reg, tr: tr, mon: mon}
	if reg != nil {
		ts.cDispatches = reg.Counter("mpam.dispatches")
	}
	a.tel = ts
}

// traceSubmit records a transfer entering a partition queue.
func (a *Arbiter) traceSubmit(r *BWRequest) {
	ts := a.tel
	if ts == nil {
		return
	}
	ts.part(r.Label.PARTID).mon.TxnStart()
}

// traceServe records a completed transfer: a span from submission to
// completion on the "mpam" track plus window-bandwidth accounting.
func (a *Arbiter) traceServe(r *BWRequest, done sim.Time) {
	ts := a.tel
	if ts == nil {
		return
	}
	ts.cDispatches.Inc()
	pt := ts.part(r.Label.PARTID)
	pt.mon.AddBytes(done, r.Bytes)
	pt.mon.TxnEnd()
	if ts.tr != nil {
		ts.tr.Span("mpam", pt.key, r.submitted, done, "bytes", strconv.Itoa(r.Bytes))
	}
}
