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

	// mons caches each entity's "mem:<name>" monitor by bare name, so
	// the per-request hooks skip building the key and the set's
	// lock+map.
	mons map[string]*telemetry.Monitor
}

// monitor returns (resolving on the entity's first request) its
// monitor, nil without a monitor set.
func (ts *telemetryState) monitor(name string) *telemetry.Monitor {
	if ts.mon == nil {
		return nil
	}
	m := ts.mons[name]
	if m == nil {
		m = ts.mon.Monitor("mem:" + name)
		ts.mons[name] = m
	}
	return m
}

// SetTelemetry attaches a metrics registry, tracer, and monitor set.
// Any argument may be nil; all nil disables instrumentation.
func (r *Regulator) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer, mon *telemetry.MonitorSet) {
	if reg == nil && tr == nil && mon == nil {
		r.tel = nil
		return
	}
	ts := &telemetryState{reg: reg, tr: tr, mon: mon, mons: make(map[string]*telemetry.Monitor)}
	if reg != nil {
		ts.cRequests = reg.Counter("memguard.requests")
		ts.cThrottles = reg.Counter("memguard.throttle_events")
	}
	r.tel = ts
}

// traceSubmit records a metered request arriving (regulated or
// pass-through).
func (r *Regulator) traceSubmit(name string) {
	ts := r.tel
	if ts == nil {
		return
	}
	ts.cRequests.Inc()
	ts.monitor(name).TxnStart()
}

// traceGrant records a request proceeding to the memory system. The
// span covers submission to grant: zero-width when the entity had
// budget (or is unregulated), the full stall when it was throttled.
func (r *Regulator) traceGrant(name string, bytes int, submit, grant sim.Time) {
	ts := r.tel
	if ts == nil {
		return
	}
	m := ts.monitor(name)
	m.AddBytes(grant, bytes)
	m.TxnEnd()
	if ts.tr != nil {
		ts.tr.Span("memguard", name, submit, grant, "bytes", strconv.Itoa(bytes))
	}
}

// traceThrottle marks a budget-depletion (counter overflow) interrupt.
func (r *Regulator) traceThrottle(name string, at sim.Time) {
	ts := r.tel
	if ts == nil {
		return
	}
	ts.cThrottles.Inc()
	if ts.tr != nil {
		ts.tr.Instant("memguard", name+" depleted", at)
	}
}

// traceReplenish marks a period-boundary drain resuming an entity.
func (r *Regulator) traceReplenish(name string, at sim.Time) {
	ts := r.tel
	if ts == nil || ts.tr == nil {
		return
	}
	ts.tr.Instant("memguard", name+" replenished", at)
}
