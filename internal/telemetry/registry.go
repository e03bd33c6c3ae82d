// Package telemetry is the unified observability layer for the
// platform model: a metrics registry with typed instruments
// (counters, gauges, log-scale histograms), a sim-time event tracer
// that serializes to Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing), and PMU-style per-master monitors (sliding-window
// bandwidth, outstanding-transaction high-water marks) in the mould of
// the paper's MPAM resource monitors and MemGuard's performance
// counters — the "monitoring" half of the identification → monitoring
// → control triad of Section V.
//
// Every instrument is nil-safe: methods on a nil *Registry, *Tracer,
// *MonitorSet, or any nil instrument are no-ops, so instrumented code
// pays a single pointer test when telemetry is disabled. All
// instruments are deterministic — they record only values derived
// from virtual time, never the wall clock — so two identical
// simulation runs dump byte-identical metrics and traces.
package telemetry

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a monotonically increasing counter. Nil-safe and safe
// for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Store sets the counter to v, for mirroring a monotone count that is
// maintained elsewhere (e.g. a cache's hit total) at snapshot time.
// The caller owns the monotonicity guarantee.
func (c *Counter) Store(v uint64) {
	if c != nil {
		c.v.Store(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a floating-point instantaneous value. Nil-safe and safe
// for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(floatBits(v))
	}
}

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if floatFromBits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// Registry is a named collection of instruments. Instruments are
// created on first use and live for the registry's lifetime. Nil-safe:
// a nil registry returns nil instruments, whose methods are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	helps      map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		helps:      make(map[string]string),
	}
}

// SetHelp attaches a HELP string to the named instrument, emitted as
// a `# HELP` line in the OpenMetrics exposition. Expositions whose
// every family carries HELP metadata pass `omlint -strict`; families
// without help render exactly as before, so existing goldens are
// unaffected. Nil-safe.
func (r *Registry) SetHelp(name, help string) {
	if r == nil || help == "" {
		return
	}
	r.mu.Lock()
	if r.helps == nil {
		r.helps = make(map[string]string)
	}
	r.helps[name] = help
	r.mu.Unlock()
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// RegisterHistogram adopts an externally owned histogram under the
// given name so it appears in the registry dump. Re-registering the
// same name replaces the binding.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.histograms[name] = h
	r.mu.Unlock()
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
