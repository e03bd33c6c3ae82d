package memguard

import (
	"strconv"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// telemetryState is the regulator's optional instrumentation; a nil
// pointer disables it entirely.
type telemetryState struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer
	mon *telemetry.MonitorSet

	cRequests  *telemetry.Counter
	cThrottles *telemetry.Counter
}

// monitor returns (resolving on the entity's first request) its
// monitor, nil without a monitor set. The entity keeps it, so the
// per-request hooks skip building the key and the set's lock+map.
func (ts *telemetryState) monitor(e *Entity) *telemetry.Monitor {
	if ts.mon == nil {
		return nil
	}
	if e.mon == nil {
		e.mon = ts.mon.Monitor("mem:" + e.name)
	}
	return e.mon
}

// SetTelemetry attaches a metrics registry, tracer, and monitor set.
// Any argument may be nil; all nil disables instrumentation.
func (r *Regulator) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer, mon *telemetry.MonitorSet) {
	for _, e := range r.entities {
		e.mon = nil // resolved again from the new set
	}
	if reg == nil && tr == nil && mon == nil {
		r.tel = nil
		return
	}
	ts := &telemetryState{reg: reg, tr: tr, mon: mon}
	if reg != nil {
		ts.cRequests = reg.Counter("memguard.requests")
		ts.cThrottles = reg.Counter("memguard.throttle_events")
	}
	r.tel = ts
}

// traceSubmit records a metered request arriving (regulated or
// pass-through).
func (r *Regulator) traceSubmit(e *Entity) {
	ts := r.tel
	if ts == nil {
		return
	}
	ts.cRequests.Inc()
	ts.monitor(e).TxnStart()
}

// traceGrant records a request proceeding to the memory system. The
// span covers submission to grant: zero-width when the entity had
// budget (or is unregulated), the full stall when it was throttled.
func (r *Regulator) traceGrant(e *Entity, bytes int, submit, grant sim.Time) {
	ts := r.tel
	if ts == nil {
		return
	}
	m := ts.monitor(e)
	m.AddBytes(grant, bytes)
	m.TxnEnd()
	if ts.tr != nil {
		ts.tr.Span("memguard", e.name, submit, grant, "bytes", strconv.Itoa(bytes))
	}
}

// traceThrottle marks a budget-depletion (counter overflow) interrupt.
func (r *Regulator) traceThrottle(e *Entity, at sim.Time) {
	ts := r.tel
	if ts == nil {
		return
	}
	ts.cThrottles.Inc()
	if ts.tr != nil {
		ts.tr.Instant("memguard", e.name+" depleted", at)
	}
}

// traceReplenish marks a period-boundary drain resuming an entity.
func (r *Regulator) traceReplenish(e *Entity, at sim.Time) {
	ts := r.tel
	if ts == nil || ts.tr == nil {
		return
	}
	ts.tr.Instant("memguard", e.name+" replenished", at)
}
