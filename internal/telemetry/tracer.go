package telemetry

import (
	"io"
	"strconv"
	"sync"

	"repro/internal/sim"
)

// Tracer records sim-time events and serializes them as Chrome
// trace_event JSON (the format chrome://tracing and Perfetto load).
// Tracks map to "threads" of a single "process"; each subsystem
// claims one or more named tracks ("dram.bank3", "noc", "memguard",
// "admission", ...). Timestamps are virtual time: one trace
// microsecond is one simulated microsecond, emitted at picosecond
// precision, so the serialization is exact and byte-identical across
// identical runs.
//
// All methods are nil-safe no-ops on a nil *Tracer and safe for
// concurrent use.
type Tracer struct {
	mu     sync.Mutex
	tracks map[string]int
	order  []string
	events []traceEvent
}

// event phases, straight from the trace_event format spec.
const (
	phaseBegin    = 'B'
	phaseEnd      = 'E'
	phaseComplete = 'X'
	phaseInstant  = 'i'
	phaseCounter  = 'C'
)

type traceEvent struct {
	name  string
	ph    byte
	ts    sim.Time
	dur   sim.Duration // phaseComplete only
	tid   int
	value float64  // phaseCounter only
	args  []string // key/value pairs, rendered into "args"
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{tracks: make(map[string]int)}
}

// track returns the tid for a named track, creating it on first use.
// Caller holds t.mu.
func (t *Tracer) track(name string) int {
	id, ok := t.tracks[name]
	if !ok {
		id = len(t.order) + 1
		t.tracks[name] = id
		t.order = append(t.order, name)
	}
	return id
}

func (t *Tracer) emit(track string, ev traceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.tid = t.track(track)
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Begin opens a span on a track. Spans on one track must nest.
func (t *Tracer) Begin(track, name string, at sim.Time) {
	t.emit(track, traceEvent{name: name, ph: phaseBegin, ts: at})
}

// End closes the innermost open span on a track.
func (t *Tracer) End(track, name string, at sim.Time) {
	t.emit(track, traceEvent{name: name, ph: phaseEnd, ts: at})
}

// Span records a complete [start, end] interval on a track. Optional
// args are alternating key/value string pairs attached to the event.
func (t *Tracer) Span(track, name string, start, end sim.Time, kv ...string) {
	if end < start {
		end = start
	}
	t.emit(track, traceEvent{name: name, ph: phaseComplete, ts: start, dur: end - start, args: kv})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(track, name string, at sim.Time, kv ...string) {
	t.emit(track, traceEvent{name: name, ph: phaseInstant, ts: at, args: kv})
}

// Sample records one point of a counter series on a track (rendered
// as a filled area chart by trace viewers).
func (t *Tracer) Sample(track, name string, at sim.Time, value float64) {
	t.emit(track, traceEvent{name: name, ph: phaseCounter, ts: at, value: value})
}

// Events returns the number of recorded events.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// appendTS renders a virtual time as trace microseconds with
// picosecond precision (1 ps = 1e-6 us, so six decimals are exact).
func appendTS(b []byte, t sim.Time) []byte {
	us := int64(t) / 1_000_000
	ps := int64(t) % 1_000_000
	b = strconv.AppendInt(b, us, 10)
	b = append(b, '.')
	for div := int64(100_000); div > 0; div /= 10 {
		b = append(b, byte('0'+(ps/div)%10))
	}
	return b
}

// WriteJSON serializes the trace in Chrome trace_event JSON object
// format. Track metadata comes first, then events in record order, so
// identical runs serialize byte-identically.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`+"\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := []byte(`{"traceEvents":[` + "\n")
	first := true
	sep := func() {
		if !first {
			b = append(b, ",\n"...)
		}
		first = false
	}
	for i, name := range t.order {
		sep()
		b = append(b, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"args":{"name":`...)
		b = strconv.AppendQuote(b, name)
		b = append(b, "}}"...)
	}
	for _, ev := range t.events {
		sep()
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, ev.name)
		b = append(b, `,"ph":"`...)
		b = append(b, ev.ph)
		b = append(b, `","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(ev.tid), 10)
		b = append(b, `,"ts":`...)
		b = appendTS(b, ev.ts)
		switch ev.ph {
		case phaseComplete:
			b = append(b, `,"dur":`...)
			b = appendTS(b, ev.dur)
		case phaseInstant:
			b = append(b, `,"s":"t"`...)
		case phaseCounter:
			b = append(b, `,"args":{"value":`...)
			b = appendFloat(b, ev.value)
			b = append(b, '}')
		}
		if len(ev.args) >= 2 && ev.ph != phaseCounter {
			b = append(b, `,"args":{`...)
			for i := 0; i+1 < len(ev.args); i += 2 {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendQuote(b, ev.args[i])
				b = append(b, ':')
				b = strconv.AppendQuote(b, ev.args[i+1])
			}
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	b = append(b, "\n],\"displayTimeUnit\":\"ns\"}\n"...)
	_, err := w.Write(b)
	return err
}

// EngineObserver adapts the tracer and registry to the simulation
// kernel's Observer hook: it counts dispatched events into the
// "sim.events" counter and periodically samples the dispatch count
// onto the "sim" track so kernel activity shows up in the trace.
type EngineObserver struct {
	events *Counter
	tracer *Tracer
	every  uint64
	n      uint64
}

// NewEngineObserver builds an observer. sampleEvery controls how many
// dispatched events separate consecutive trace counter samples
// (<= 0 defaults to 1024); reg and tr may each be nil.
func NewEngineObserver(reg *Registry, tr *Tracer, sampleEvery int) *EngineObserver {
	if sampleEvery <= 0 {
		sampleEvery = 1024
	}
	return &EngineObserver{events: reg.Counter("sim.events"), tracer: tr, every: uint64(sampleEvery)}
}

// BeforeEvent implements sim.Observer.
func (o *EngineObserver) BeforeEvent(at sim.Time) {
	o.n++
	o.events.Inc()
	if o.tracer != nil && o.n%o.every == 0 {
		o.tracer.Sample("sim", "events dispatched", at, float64(o.n))
	}
}

// AfterEvent implements sim.Observer.
func (o *EngineObserver) AfterEvent(at sim.Time) {}
