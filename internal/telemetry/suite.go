package telemetry

import (
	"repro/internal/sim"
)

// Suite bundles the three telemetry facilities a subsystem may be
// handed: a metrics registry, a trace writer, and PMU-style monitors.
// Any field may be nil (that facility is disabled); the zero Suite
// and a nil *Suite are fully inert.
type Suite struct {
	Registry *Registry
	Tracer   *Tracer
	Monitors *MonitorSet
}

// NewSuite builds a suite with a registry and monitor set, and a
// tracer when withTrace is set. monitorWindow <= 0 defaults to 1ms.
func NewSuite(withTrace bool, monitorWindow sim.Duration) *Suite {
	s := &Suite{
		Registry: NewRegistry(),
		Monitors: NewMonitorSet(monitorWindow),
	}
	if withTrace {
		s.Tracer = NewTracer()
	}
	return s
}

// registry returns the suite's registry, nil on a nil suite.
func (s *Suite) registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Registry
}

// tracer returns the suite's tracer, nil on a nil suite.
func (s *Suite) tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// monitors returns the suite's monitor set, nil on a nil suite.
func (s *Suite) monitors() *MonitorSet {
	if s == nil {
		return nil
	}
	return s.Monitors
}

// WriteTraceFile dumps the trace as Chrome trace_event JSON to path
// ("-" writes to stdout).
func (s *Suite) WriteTraceFile(path string) error {
	return WriteOutput(path, s.tracer().WriteJSON)
}
