// Package wtrace is the wall-clock request-tracing layer of the
// service plane: where internal/telemetry's Tracer records *simulated*
// time deterministically, wtrace records what the real clock did to a
// real request — HTTP parse, shard-queue wait, shard-loop decision,
// response encode — as spans of a W3C-trace-context trace.
//
// The design constraints mirror the paper's observability argument:
// every latency contribution on the request path must be attributable
// (per-span, per-stage), and the act of observing must not perturb the
// path being observed. Concretely:
//
//   - head-based probabilistic sampling: the sample/no-sample decision
//     is made once, when the request arrives, before any span exists.
//     An unsampled request pays one pointer test and one threshold
//     compare — no allocation, no lock, no clock read.
//   - completed spans only: code records a span after the fact with
//     explicit start/end timestamps, so the hot path never holds an
//     open-span handle across a channel hop.
//   - bounded memory: spans land in a fixed-size ring; a scrape
//     (/v1/traces) snapshots the ring without stalling writers.
//
// Trace identity follows the W3C Trace Context `traceparent` header
// (version 00): an inbound header joins the caller's trace (ids are
// reused, the inbound span becomes the root's parent); otherwise a new
// trace id is generated. The sampling decision is always local —
// governed by the configured probability, not the inbound flag — so a
// service with sampling off does no tracing work regardless of what
// clients send.
package wtrace

import (
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// TraceID is the 16-byte W3C trace id (32 lowercase hex digits on the
// wire).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is the 8-byte W3C parent/span id (16 lowercase hex digits on
// the wire).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// FlagSampled is the traceparent trace-flags bit signalling that the
// caller sampled the trace.
const FlagSampled byte = 0x01

// ParseTraceparent decodes a version-00 W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>"). Unknown versions and malformed
// headers are errors; all-zero trace or span ids are invalid per spec.
func ParseTraceparent(h string) (TraceID, SpanID, byte, error) {
	var tid TraceID
	var sid SpanID
	parts := strings.Split(h, "-")
	if len(parts) != 4 {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent %q: want 4 dash-separated fields", h)
	}
	if parts[0] != "00" {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent version %q unsupported", parts[0])
	}
	if len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent %q: bad field lengths", h)
	}
	if _, err := hex.Decode(tid[:], []byte(parts[1])); err != nil {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent trace-id: %v", err)
	}
	if _, err := hex.Decode(sid[:], []byte(parts[2])); err != nil {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent parent-id: %v", err)
	}
	var fb [1]byte
	if _, err := hex.Decode(fb[:], []byte(parts[3])); err != nil {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent flags: %v", err)
	}
	if tid.IsZero() {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent %q: all-zero trace-id", h)
	}
	if sid.IsZero() {
		return tid, sid, 0, fmt.Errorf("wtrace: traceparent %q: all-zero parent-id", h)
	}
	return tid, sid, fb[0], nil
}

// Traceparent renders a version-00 traceparent header.
func Traceparent(tid TraceID, sid SpanID, flags byte) string {
	return fmt.Sprintf("00-%s-%s-%02x", tid, sid, flags)
}

// Span is one completed interval of a traced request. Timestamps are
// wall-clock Unix nanoseconds; Attrs are alternating key/value pairs.
type Span struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID // zero for a locally rooted request span
	Name    string
	StartNS int64
	EndNS   int64
	Attrs   []string
}

// DurNS returns the span duration, clamped non-negative.
func (s Span) DurNS() int64 {
	if s.EndNS < s.StartNS {
		return 0
	}
	return s.EndNS - s.StartNS
}

// Config parameterizes a Tracer.
type Config struct {
	// Sample is the head-sampling probability in [0, 1]. 0 disables
	// tracing entirely (StartRequest returns nil without reading the
	// clock); 1 samples every request.
	Sample float64
	// RingSpans bounds the in-memory completed-span ring served by
	// /v1/traces (default 8192). The ring overwrites oldest-first; the
	// overwrite count is exported as wtrace_spans_dropped.
	RingSpans int
	// Registry receives the tracer's own counters (wtrace_requests,
	// wtrace_spans, wtrace_spans_dropped). Nil disables them.
	Registry *telemetry.Registry
	// Now overrides the wall clock (tests); defaults to time.Now.
	Now func() time.Time
	// Seed seeds the id generator; 0 derives a seed from the clock.
	Seed uint64
}

// Tracer is the request-tracing engine: it makes sampling decisions,
// mints trace/span ids, and collects completed spans into the bounded
// ring. All methods are nil-safe and safe for concurrent use.
type Tracer struct {
	sample    float64
	threshold uint64 // sample iff draw < threshold (sample < 1)
	epochNS   int64  // trace_event timestamps are relative to this
	now       func() time.Time
	ring      *ring
	seed      uint64
	seq       atomic.Uint64

	requests *telemetry.Counter
	spans    *telemetry.Counter
	dropped  *telemetry.Counter
}

// New builds a tracer. A nil *Tracer (or Sample <= 0) is a valid
// "tracing off" configuration: StartRequest returns nil and every
// downstream call is a no-op.
func New(cfg Config) *Tracer {
	if cfg.RingSpans <= 0 {
		cfg.RingSpans = 8192
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(cfg.Now().UnixNano()) | 1
	}
	t := &Tracer{
		sample:  cfg.Sample,
		epochNS: cfg.Now().UnixNano(),
		now:     cfg.Now,
		ring:    newRing(cfg.RingSpans),
		seed:    cfg.Seed,

		requests: cfg.Registry.Counter("wtrace_requests"),
		spans:    cfg.Registry.Counter("wtrace_spans"),
		dropped:  cfg.Registry.Counter("wtrace_spans_dropped"),
	}
	if cfg.Sample < 1 {
		t.threshold = uint64(cfg.Sample * float64(1<<63) * 2)
	}
	for name, help := range map[string]string{
		"wtrace_requests":      "Requests head-sampled into the wall-clock trace ring.",
		"wtrace_spans":         "Wall-clock spans recorded by the request tracer.",
		"wtrace_spans_dropped": "Spans overwritten in the bounded trace ring before being scraped.",
	} {
		cfg.Registry.SetHelp(name, help)
	}
	return t
}

// splitmix64 is the id/sampling PRNG: one multiply-xor chain per draw,
// no locks, full-period over the counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) draw() uint64 { return splitmix64(t.seed ^ t.seq.Add(1)) }

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	a, b := t.draw(), t.draw()
	for i := 0; i < 8; i++ {
		id[i] = byte(a >> (8 * i))
		id[8+i] = byte(b >> (8 * i))
	}
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	a := t.draw()
	for i := 0; i < 8; i++ {
		id[i] = byte(a >> (8 * i))
	}
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

// Sampled reports whether the tracer would sample right now (one PRNG
// draw). Exposed for tests; StartRequest is the real entry point.
func (t *Tracer) Sampled() bool {
	if t == nil || t.sample <= 0 {
		return false
	}
	if t.sample >= 1 {
		return true
	}
	return t.draw() < t.threshold
}

// NowNS reads the tracer's wall clock as Unix nanoseconds.
func (t *Tracer) NowNS() int64 {
	if t == nil {
		return 0
	}
	return t.now().UnixNano()
}

// StartRequest makes the head sampling decision for one inbound
// request. It returns nil — the "not traced" context, on which every
// method is a free no-op — for unsampled requests; a non-nil *ReqTrace
// joins the inbound traceparent's trace when the header parses, or
// roots a new trace otherwise.
func (t *Tracer) StartRequest(traceparent string) *ReqTrace {
	if !t.Sampled() {
		return nil
	}
	r := &ReqTrace{t: t, startNS: t.now().UnixNano()}
	if traceparent != "" {
		if tid, sid, _, err := ParseTraceparent(traceparent); err == nil {
			r.traceID, r.parent = tid, sid
		}
	}
	if r.traceID.IsZero() {
		r.traceID = t.newTraceID()
	}
	r.root = t.newSpanID()
	t.requests.Inc()
	return r
}

// record pushes one completed span into the ring.
func (t *Tracer) record(s Span) {
	t.spans.Inc()
	if t.ring.push(s) {
		t.dropped.Inc()
	}
}

// lanes is the number of display tracks concurrent traces are hashed
// onto: spans of one trace always share a lane (trace-id hash), so a
// trace reads as one nested timeline in Perfetto, while concurrent
// traces mostly land on different lanes instead of overlapping.
const lanes = 8

func laneOf(tid TraceID) int { return int(tid[15]) % lanes }

// WriteTraceEvents serializes the ring's current contents as Chrome
// trace_event JSON (see ring.go) — the /v1/traces payload, and the
// file rmd -trace writes at drain.
func (t *Tracer) WriteTraceEvents(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte(`{"traceEvents":[],"displayTimeUnit":"ns","spans":0,"spans_total":0,"dropped":0}` + "\n"))
		return err
	}
	return t.ring.writeTraceEvents(w, t.epochNS)
}

// SpansRecorded returns the total number of spans ever recorded (the
// ring may hold fewer).
func (t *Tracer) SpansRecorded() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.total()
}

// Snapshot copies the ring's current spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	spans, _ := t.ring.snapshot()
	return spans
}

// ReqTrace is one sampled request's trace context: the trace id, the
// root span id, and the request start time. A nil *ReqTrace is the
// unsampled context; every method no-ops on it.
type ReqTrace struct {
	t       *Tracer
	traceID TraceID
	root    SpanID
	parent  SpanID
	startNS int64
}

// TraceID returns the trace id as hex ("" when not traced).
func (r *ReqTrace) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID.String()
}

// Root returns the root span's id (zero when not traced). Child spans
// recorded during request handling parent on it.
func (r *ReqTrace) Root() SpanID {
	if r == nil {
		return SpanID{}
	}
	return r.root
}

// StartNS returns the request's start timestamp (Unix ns).
func (r *ReqTrace) StartNS() int64 {
	if r == nil {
		return 0
	}
	return r.startNS
}

// NowNS reads the tracer's clock (0 when not traced, so callers can
// guard timing work behind the nil check implicitly).
func (r *ReqTrace) NowNS() int64 {
	if r == nil {
		return 0
	}
	return r.t.now().UnixNano()
}

// Responseparent renders the traceparent header the service returns:
// this request's trace id, the root span as parent, sampled flag set.
func (r *ReqTrace) Responseparent() string {
	if r == nil {
		return ""
	}
	return Traceparent(r.traceID, r.root, FlagSampled)
}

// Span records one completed child span. parent is normally Root() (or
// a previously recorded span's id for deeper nesting). Returns the new
// span's id for further nesting.
func (r *ReqTrace) Span(parent SpanID, name string, startNS, endNS int64, attrs ...string) SpanID {
	if r == nil {
		return SpanID{}
	}
	id := r.t.newSpanID()
	r.RecordSpan(id, parent, name, startNS, endNS, attrs...)
	return id
}

// NewSpanID mints a span id without recording anything — for spans
// whose children are recorded before the parent closes (a batch span
// covering per-op children): allocate the id up front, parent the
// children on it, then RecordSpan the parent once its end is known.
func (r *ReqTrace) NewSpanID() SpanID {
	if r == nil {
		return SpanID{}
	}
	return r.t.newSpanID()
}

// RecordSpan records a completed span under a caller-allocated id
// (see NewSpanID).
func (r *ReqTrace) RecordSpan(id, parent SpanID, name string, startNS, endNS int64, attrs ...string) {
	if r == nil {
		return
	}
	r.t.record(Span{
		TraceID: r.traceID,
		SpanID:  id,
		Parent:  parent,
		Name:    name,
		StartNS: startNS,
		EndNS:   endNS,
		Attrs:   attrs,
	})
}

// Finish records the root "request" span, closing the trace. endNS is
// the response-complete timestamp; attrs annotate the outcome
// (endpoint, status, queue-wait, breaker rejection, ...).
func (r *ReqTrace) Finish(endNS int64, attrs ...string) {
	if r == nil {
		return
	}
	r.t.record(Span{
		TraceID: r.traceID,
		SpanID:  r.root,
		Parent:  r.parent,
		Name:    "request",
		StartNS: r.startNS,
		EndNS:   endNS,
		Attrs:   attrs,
	})
}
