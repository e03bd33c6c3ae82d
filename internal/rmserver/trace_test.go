package rmserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wtrace"
)

// testTracedService builds a fleet with head sampling at 1.0 so every
// request produces a complete trace.
func testTracedService(t *testing.T, cfg Config) (*Fleet, *wtrace.Tracer, *httptest.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	f := New(cfg, reg)
	tr := wtrace.New(wtrace.Config{Sample: 1, Seed: 1234, RingSpans: 1 << 14, Registry: reg})
	srv := httptest.NewServer(NewTracedHandler(f, tr))
	t.Cleanup(func() {
		srv.Close()
		f.Drain()
	})
	return f, tr, srv
}

func spanCounts(spans []wtrace.Span) map[string]int {
	m := make(map[string]int)
	for _, s := range spans {
		name := s.Name
		if strings.HasPrefix(name, "op.") {
			name = "op"
		}
		m[name]++
	}
	return m
}

// TestTraceSpanConservation pins the span arithmetic per request path:
// accepted singles, batches, parse errors, and breaker rejections each
// emit exactly their expected span set, and the shard-level spans
// reconcile with the fleet's own counters.
func TestTraceSpanConservation(t *testing.T) {
	f, tr, srv := testTracedService(t, Config{
		Shards: 1,
		Breaker: BreakerConfig{
			Window:         time.Hour,
			MinRequests:    1,
			TripRatio:      0.01,
			Cooldown:       time.Hour,
			HalfOpenProbes: 1,
		},
	})

	// 5 accepted single ops: request + parse + queue_wait + decision +
	// op + encode = 6 spans each.
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/register",
			fmt.Sprintf(`{"platform":"p%d","app":"a","burst_bytes":1,"deadline_ns":1e6}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %d: %d %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("traceparent") == "" {
			t.Fatal("sampled response missing traceparent header")
		}
	}
	// 1 parse error: request + parse only.
	if resp, _ := postJSON(t, srv.URL+"/v1/register", `garbage`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error returned %d", resp.StatusCode)
	}
	// 1 batch of 3 ops on one shard: request + parse + queue_wait +
	// decision + 3 ops + encode = 8 spans.
	resp, body := postJSON(t, srv.URL+"/v1/batch", `{"ops":[
		{"kind":"register","platform":"p0","app":"b","burst_bytes":1,"deadline_ns":1e6},
		{"kind":"register","platform":"p1","app":"b","burst_bytes":1,"deadline_ns":1e6},
		{"kind":"withdraw","platform":"p0","app":"b"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	// 1 stats scrape: root span only.
	if _, err := http.Get(srv.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	}
	// Trip the breaker, then one request rejected at the front door:
	// root span only, with the rejection as span attributes.
	f.breaker.Record(true)
	f.breaker.Record(true)
	resp, _ = postJSON(t, srv.URL+"/v1/register", `{"platform":"p0","app":"z"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("breaker-open register returned %d, want 429", resp.StatusCode)
	}

	spans := tr.Snapshot()
	got := spanCounts(spans)
	want := map[string]int{
		"request":    9,     // 5 singles + error + batch + stats + breaker-open
		"parse":      7,     // 5 singles + error + batch
		"queue_wait": 6,     // 5 singles + batch (1 group)
		"decision":   6,     //
		"op":         5 + 3, // singles + batch ops
		"encode":     5 + 1, // singles + batch
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s spans = %d, want %d (all: %v)", name, got[name], n, got)
		}
	}

	// Cross-check against the fleet's own counters: every accepted
	// batch is one decision span, every executed op one op span, every
	// sampled request one root span.
	st := f.Snapshot()
	if got["decision"] != int(st.Batches) {
		t.Errorf("decision spans %d != batches %d", got["decision"], st.Batches)
	}
	if got["op"] != int(st.Decisions) {
		t.Errorf("op spans %d != decisions %d", got["op"], st.Decisions)
	}
	reqs := f.Registry().Counter("wtrace_requests").Value()
	if got["request"] != int(reqs) {
		t.Errorf("request spans %d != wtrace_requests %d", got["request"], reqs)
	}

	// The breaker rejection is attributed on its root span.
	var breakerSpan *wtrace.Span
	for i := range spans {
		for j := 0; j+1 < len(spans[i].Attrs); j += 2 {
			if spans[i].Attrs[j] == "outcome" && spans[i].Attrs[j+1] == "breaker_open" {
				breakerSpan = &spans[i]
			}
		}
	}
	if breakerSpan == nil || breakerSpan.Name != "request" {
		t.Fatalf("no root span carries outcome=breaker_open (got %+v)", breakerSpan)
	}
}

// TestTraceShedOutcome drives a full shard queue and checks shed
// portions still record a queue_wait span with outcome=shed, keeping
// the conservation arithmetic intact on the 429 path.
func TestTraceShedOutcome(t *testing.T) {
	_, tr, srv := testTracedService(t, Config{
		Shards:        1,
		QueueDepth:    1,
		DecisionDelay: 2 * time.Millisecond,
		Breaker: BreakerConfig{
			Window:         time.Hour,
			MinRequests:    1 << 30, // never trips: isolate queue shedding
			TripRatio:      1,
			Cooldown:       time.Minute,
			HalfOpenProbes: 1,
		},
	})

	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Second)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var sb strings.Builder
				for i := 0; i < 8; i++ {
					fmt.Fprintf(&sb, "r p0 c%dapp%d b 1 0\n", c, i)
				}
				resp, err := http.Post(srv.URL+"/v1/batch", OpsContentType, strings.NewReader(sb.String()))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()

	shed, served := 0, 0
	for _, s := range tr.Snapshot() {
		if s.Name != "queue_wait" {
			continue
		}
		isShed := false
		for j := 0; j+1 < len(s.Attrs); j += 2 {
			if s.Attrs[j] == "outcome" && s.Attrs[j+1] == "shed" {
				isShed = true
			}
		}
		if isShed {
			shed++
		} else {
			served++
		}
	}
	if shed == 0 {
		t.Error("overload produced no queue_wait spans with outcome=shed")
	}
	if served == 0 {
		t.Error("overload produced no served queue_wait spans")
	}
}

// TestTraceExemplarResolvesToTrace is the acceptance path: the p99
// exemplar on /metrics names a trace id that resolves to a complete
// multi-span trace at /v1/traces whose root duration bounds both the
// sum of its direct children and the observed request latency.
func TestTraceExemplarResolvesToTrace(t *testing.T) {
	f, _, srv := testTracedService(t, Config{Shards: 2})
	for i := 0; i < 20; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/register",
			fmt.Sprintf(`{"platform":"q%d","app":"a","burst_bytes":1,"deadline_ns":1e6}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %d: %d %s", i, resp.StatusCode, body)
		}
	}

	var om strings.Builder
	if err := f.Registry().WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	// Find the exemplar on the http-latency p99 line.
	var traceID string
	var exemplarVal int64
	for _, line := range strings.Split(om.String(), "\n") {
		if !strings.HasPrefix(line, `rmserver_http_latency_ns{quantile="0.99"}`) {
			continue
		}
		i := strings.Index(line, `# {trace_id="`)
		if i < 0 {
			t.Fatalf("p99 line has no exemplar: %q", line)
		}
		rest := line[i+len(`# {trace_id="`):]
		j := strings.IndexByte(rest, '"')
		traceID = rest[:j]
		fields := strings.Fields(rest[j+2:])
		fmt.Sscan(fields[0], &exemplarVal)
	}
	if traceID == "" {
		t.Fatal("no exemplar found on rmserver_http_latency_ns p99")
	}

	// Resolve it against the live trace endpoint.
	resp, err := http.Get(srv.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/v1/traces Content-Type %q, want application/json", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				TraceID  string `json:"trace_id"`
				SpanID   string `json:"span_id"`
				ParentID string `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
		Dropped int `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/v1/traces is not valid JSON: %v", err)
	}
	if doc.Dropped != 0 {
		t.Fatalf("trace ring dropped %d spans with a 16k ring", doc.Dropped)
	}

	var rootDurUS, childSumUS float64
	var rootSpanID string
	spansInTrace := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args.TraceID != traceID {
			continue
		}
		spansInTrace++
		if ev.Name == "request" {
			rootDurUS = ev.Dur
			rootSpanID = ev.Args.SpanID
		}
	}
	if spansInTrace != 6 {
		t.Fatalf("exemplar trace %s has %d spans, want 6", traceID, spansInTrace)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Args.TraceID == traceID && ev.Args.ParentID == rootSpanID {
			childSumUS += ev.Dur
		}
	}
	if rootDurUS <= 0 {
		t.Fatal("exemplar trace has no request root span")
	}
	// Direct children partition the request path sequentially, so
	// their durations must fit inside the root.
	if childSumUS > rootDurUS*1.001 {
		t.Errorf("children sum %.3fus exceeds root %.3fus", childSumUS, rootDurUS)
	}
	// And the root covers the measured request latency (the exemplar
	// value) — the sum-to-within-bounds acceptance check.
	if rootUS := float64(exemplarVal) / 1000; rootDurUS < rootUS*0.5 {
		t.Errorf("root %.3fus does not cover exemplar latency %.3fus", rootDurUS, rootUS)
	}
}

// TestTraceInboundTraceparentJoins checks W3C context propagation over
// HTTP: the response echoes the inbound trace id and the recorded root
// span parents on the inbound span id.
func TestTraceInboundTraceparentJoins(t *testing.T) {
	_, tr, srv := testTracedService(t, Config{Shards: 1})
	req, _ := http.NewRequest("POST", srv.URL+"/v1/register",
		strings.NewReader(`{"platform":"p","app":"a","burst_bytes":1,"deadline_ns":1e6}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Fatalf("response traceparent %q did not join inbound trace", tp)
	}
	joined := false
	for _, s := range tr.Snapshot() {
		if s.Name == "request" && s.TraceID.String() == "4bf92f3577b34da6a3ce929d0e0e4736" &&
			s.Parent.String() == "00f067aa0ba902b7" {
			joined = true
		}
	}
	if !joined {
		t.Fatal("no root span joined the inbound trace context")
	}
}

// TestTracePerShardMetrics pins the labeled per-shard families and the
// /v1/stats per-shard detail (the satellite task).
func TestTracePerShardMetrics(t *testing.T) {
	f, _, srv := testTracedService(t, Config{Shards: 2})
	for i := 0; i < 16; i++ {
		postJSON(t, srv.URL+"/v1/register",
			fmt.Sprintf(`{"platform":"s%d","app":"a","burst_bytes":1,"deadline_ns":1e6}`, i))
	}

	var om strings.Builder
	if err := f.Registry().WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	for _, want := range []string{
		`rmserver_shard_queue_wait_ns{shard="0",quantile="0.99"} `,
		`rmserver_shard_queue_wait_ns{shard="1",quantile="0.5"} `,
		`rmserver_shard_queue_wait_ns_count{shard="0"} `,
		`rmserver_shard_queue_depth{shard="0"} `,
		`rmserver_shard_queue_depth{shard="1"} `,
		`rmserver_shard_decisions_total{shard="0"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := strings.Count(out, "# TYPE rmserver_shard_queue_wait_ns summary"); got != 1 {
		t.Errorf("queue-wait TYPE emitted %d times, want 1", got)
	}

	st := f.Snapshot()
	if len(st.PerShard) != 2 {
		t.Fatalf("PerShard has %d entries, want 2", len(st.PerShard))
	}
	var perShardTotal uint64
	for _, s := range st.PerShard {
		perShardTotal += s.Decisions
	}
	if perShardTotal != st.Decisions {
		t.Errorf("per-shard decisions %d != fleet decisions %d", perShardTotal, st.Decisions)
	}
}

// TestTraceScrapeUnderLoad hits /v1/traces continuously while traced
// requests flow — the satellite -race coverage for live scrapes
// through the full HTTP stack.
func TestTraceScrapeUnderLoad(t *testing.T) {
	_, _, srv := testTracedService(t, Config{Shards: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				postJSON(t, srv.URL+"/v1/register",
					fmt.Sprintf(`{"platform":"l%d_%d","app":"a","burst_bytes":1,"deadline_ns":1e6}`, c, i))
			}
		}(c)
	}
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/v1/traces")
			if err != nil {
				continue
			}
			var doc map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Errorf("live scrape returned invalid JSON: %v", err)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
}
