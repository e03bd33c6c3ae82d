package wtrace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fixedClock returns a deterministic advancing clock for tests.
func fixedClock(startNS int64, stepNS int64) func() time.Time {
	var mu sync.Mutex
	now := startNS
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := now
		now += stepNS
		return time.Unix(0, t)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	sid := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	h := Traceparent(tid, sid, FlagSampled)
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if h != want {
		t.Fatalf("Traceparent = %q, want %q", h, want)
	}
	gotTID, gotSID, flags, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gotTID != tid || gotSID != sid || flags != FlagSampled {
		t.Fatalf("round trip mismatch: %v %v %02x", gotTID, gotSID, flags)
	}
}

func TestTraceparentInvalid(t *testing.T) {
	cases := []string{
		"",
		"00",
		"00-abc-def-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags hex
		"00-XYZ92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad trace hex
	}
	for _, h := range cases {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q): want error, got nil", h)
		}
	}
}

func TestSamplingBounds(t *testing.T) {
	// Sample 0 (and nil tracer): StartRequest returns nil.
	var nilT *Tracer
	if rt := nilT.StartRequest(""); rt != nil {
		t.Fatal("nil tracer sampled a request")
	}
	off := New(Config{Sample: 0, Seed: 1, Now: fixedClock(1e9, 1)})
	for i := 0; i < 1000; i++ {
		if rt := off.StartRequest(""); rt != nil {
			t.Fatal("sample=0 tracer sampled a request")
		}
	}
	on := New(Config{Sample: 1, Seed: 1, Now: fixedClock(1e9, 1)})
	for i := 0; i < 1000; i++ {
		if rt := on.StartRequest(""); rt == nil {
			t.Fatal("sample=1 tracer skipped a request")
		}
	}
}

func TestSamplingFraction(t *testing.T) {
	tr := New(Config{Sample: 0.25, Seed: 42, Now: fixedClock(1e9, 1)})
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if tr.Sampled() {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("sample=0.25 hit fraction = %.4f, want ~0.25", frac)
	}
}

func TestStartRequestJoinsInboundTrace(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 7, Now: fixedClock(1e9, 1)})
	inbound := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rt := tr.StartRequest(inbound)
	if rt == nil {
		t.Fatal("sampled request returned nil")
	}
	if rt.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("TraceID = %q, want inbound id", rt.TraceID())
	}
	rt.Finish(rt.StartNS() + 1000)
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Parent.String() != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %s, want inbound span id", spans[0].Parent)
	}
	// Response header carries our trace id and root span id.
	resp := rt.Responseparent()
	if !strings.HasPrefix(resp, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || !strings.HasSuffix(resp, "-01") {
		t.Fatalf("Responseparent = %q", resp)
	}
	// Malformed inbound header: new trace, no parent.
	rt2 := tr.StartRequest("garbage")
	if rt2 == nil || rt2.TraceID() == rt.TraceID() {
		t.Fatal("malformed traceparent should root a fresh trace")
	}
	rt2.Finish(rt2.StartNS())
	all := tr.Snapshot()
	if got := all[len(all)-1].Parent; !got.IsZero() {
		t.Fatalf("fresh root should have zero parent, got %s", got)
	}
}

func TestNilReqTraceNoOps(t *testing.T) {
	var rt *ReqTrace
	if rt.TraceID() != "" || !rt.Root().IsZero() || rt.StartNS() != 0 || rt.NowNS() != 0 || rt.Responseparent() != "" {
		t.Fatal("nil ReqTrace accessors should be zero")
	}
	if id := rt.Span(SpanID{}, "x", 0, 1); !id.IsZero() {
		t.Fatal("nil ReqTrace.Span should return zero id")
	}
	rt.Finish(0) // must not panic
}

func TestSpanCountersAndChromeExport(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Sample: 1, Seed: 3, Registry: reg, Now: fixedClock(1e9, 10)})
	rt := tr.StartRequest("")
	start := rt.StartNS()
	child := rt.Span(rt.Root(), "parse", start, start+500, "bytes", "128")
	rt.Span(child, "decode", start+100, start+200)
	rt.Finish(start+1000, "status", "200")
	if got := reg.Counter("wtrace_requests").Value(); got != 1 {
		t.Fatalf("wtrace_requests = %d, want 1", got)
	}
	if got := reg.Counter("wtrace_spans").Value(); got != 3 {
		t.Fatalf("wtrace_spans = %d, want 3", got)
	}
	// The Chrome export is the ring's document: one complete event per
	// span, on its trace's lane, with identity and attributes in args.
	var sb strings.Builder
	if err := tr.WriteTraceEvents(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome export is not valid trace_event JSON: %v", err)
	}
	spans := map[string]map[string]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Tid != laneOf(rt.traceID)+1 || ev.Args["trace_id"] != rt.TraceID() || ev.Args["span_id"] == "" {
			t.Fatalf("span %q: tid %d, args %v", ev.Name, ev.Tid, ev.Args)
		}
		spans[ev.Name] = ev.Args
	}
	if len(spans) != 3 || spans["parse"]["bytes"] != "128" || spans["request"]["status"] != "200" ||
		spans["decode"]["parent_id"] != spans["parse"]["span_id"] {
		t.Fatalf("chrome export spans = %v", spans)
	}
}

func TestWriteTraceEventsValidJSONAndConservation(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 9, Now: fixedClock(5e9, 7), RingSpans: 64})
	const reqs = 10
	for i := 0; i < reqs; i++ {
		rt := tr.StartRequest("")
		s := rt.StartNS()
		rt.Span(rt.Root(), "parse", s, s+100)
		rt.Span(rt.Root(), "decision", s+100, s+400, "shard", "0")
		rt.Finish(s+500, "status", "200")
	}
	var sb strings.Builder
	if err := tr.WriteTraceEvents(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Spans       int              `json:"spans"`
		SpansTotal  int              `json:"spans_total"`
		Dropped     int              `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("/v1/traces payload is not valid JSON: %v", err)
	}
	if doc.Spans != 3*reqs || doc.SpansTotal != 3*reqs || doc.Dropped != 0 {
		t.Fatalf("conservation: spans=%d total=%d dropped=%d, want %d/%d/0",
			doc.Spans, doc.SpansTotal, doc.Dropped, 3*reqs, 3*reqs)
	}
	// Every non-metadata event is a complete-phase span with ids.
	var xs int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			xs++
			args := ev["args"].(map[string]any)
			if args["trace_id"] == "" || args["span_id"] == "" {
				t.Fatalf("span event missing ids: %v", ev)
			}
		}
	}
	if xs != 3*reqs {
		t.Fatalf("got %d X events, want %d", xs, 3*reqs)
	}
}

// TestUnsampledTracerHoldsNoSpanBuffer pins the lazy ring: a tracer
// that never samples keeps no span buffer for the GC to rescan, and a
// scrape of it is an empty, valid payload.
func TestUnsampledTracerHoldsNoSpanBuffer(t *testing.T) {
	tr := New(Config{Sample: 0, Seed: 5})
	for i := 0; i < 100; i++ {
		if rt := tr.StartRequest(""); rt != nil {
			t.Fatal("Sample 0 must not start request traces")
		}
	}
	if tr.ring.buf != nil {
		t.Fatalf("unsampled tracer allocated a %d-span buffer", len(tr.ring.buf))
	}
	var sb strings.Builder
	if err := tr.WriteTraceEvents(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans      int `json:"spans"`
		SpansTotal int `json:"spans_total"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Spans != 0 || doc.SpansTotal != 0 {
		t.Fatalf("spans=%d total=%d, want 0/0", doc.Spans, doc.SpansTotal)
	}

	sampled := New(Config{Sample: 1, Seed: 5, RingSpans: 16})
	rt := sampled.StartRequest("")
	rt.Finish(rt.StartNS() + 1)
	if len(sampled.ring.buf) != 16 {
		t.Fatalf("first push allocated %d spans, want RingSpans=16", len(sampled.ring.buf))
	}
}

func TestRingWraparoundCountsDropped(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 11, Now: fixedClock(1e9, 3), RingSpans: 8})
	for i := 0; i < 20; i++ {
		rt := tr.StartRequest("")
		rt.Finish(rt.StartNS() + 10)
	}
	var sb strings.Builder
	if err := tr.WriteTraceEvents(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans      int `json:"spans"`
		SpansTotal int `json:"spans_total"`
		Dropped    int `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Spans != 8 || doc.SpansTotal != 20 || doc.Dropped != 12 {
		t.Fatalf("spans=%d total=%d dropped=%d, want 8/20/12", doc.Spans, doc.SpansTotal, doc.Dropped)
	}
	// Oldest-first: snapshot must be the 8 most recent, in order.
	spans := tr.Snapshot()
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNS < spans[i-1].StartNS {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
}

// TestConcurrentWritesDuringScrape hammers the ring from writer
// goroutines while scrapes run concurrently — the satellite -race
// coverage for live /v1/traces scrapes.
func TestConcurrentWritesDuringScrape(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 13, RingSpans: 256})
	const writers, perWriter = 4, 2000
	var writerWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				rt := tr.StartRequest("")
				s := rt.StartNS()
				rt.Span(rt.Root(), "decision", s, s+100, "shard", "1")
				rt.Finish(s+200, "status", "200")
			}
		}()
	}
	for sc := 0; sc < 2; sc++ {
		scraperWG.Add(1)
		go func() {
			defer scraperWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := tr.WriteTraceEvents(&sb); err != nil {
					t.Error(err)
					return
				}
				if !json.Valid([]byte(sb.String())) {
					t.Error("scrape produced invalid JSON under concurrency")
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	scraperWG.Wait()
	if got := tr.SpansRecorded(); got != writers*perWriter*2 {
		t.Fatalf("SpansRecorded = %d, want %d", got, writers*perWriter*2)
	}
}
