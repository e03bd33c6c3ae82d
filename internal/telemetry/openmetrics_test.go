package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"dram.reads":              "dram_reads",
		"app.hog0.read_latency":   "app_hog0_read_latency",
		"noc:flow":                "noc_flow",
		"0abc":                    "_0abc",
		"":                        "_",
		"already_fine_Name9":      "already_fine_Name9",
		"weird-chars+here(now)":   "weird_chars_here_now_",
		"monitor.mem:crit.events": "monitor_mem_crit_events",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteOpenMetricsNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Fatalf("nil registry output = %q", buf.String())
	}
}

func TestWriteOpenMetricsContent(t *testing.T) {
	r := NewRegistry()
	r.Counter("dram.reads").Add(7)
	r.Gauge("noc.delivered_total").Set(12.5)
	h := r.Histogram("app.crit.read_latency_ps")
	for _, v := range []int64{100, 200, 300, 400, 1000} {
		h.Record(v)
	}

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE dram_reads counter\n",
		"dram_reads_total 7\n",
		"# TYPE noc_delivered_total gauge\n",
		"noc_delivered_total 12.5\n",
		"# TYPE app_crit_read_latency_ps summary\n",
		`app_crit_read_latency_ps{quantile="0.5"} `,
		`app_crit_read_latency_ps{quantile="0.95"} `,
		`app_crit_read_latency_ps{quantile="0.99"} `,
		"app_crit_read_latency_ps_sum 2000\n",
		"app_crit_read_latency_ps_count 5\n",
		"app_crit_read_latency_ps_min 100\n",
		"app_crit_read_latency_ps_max 1000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("output does not end with # EOF:\n%s", out)
	}
}

func TestWriteOpenMetricsSortedAndStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in shuffled order; serialization must sort.
		r.Gauge("zzz.last").Set(1)
		r.Counter("mmm.mid").Inc()
		r.Histogram("aaa.first").Record(5)
		r.Counter("bbb.second").Inc()
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical registries serialized differently")
	}
	// Family order must be sorted by metric name.
	idx := func(s string) int { return strings.Index(a.String(), "# TYPE "+s) }
	order := []int{idx("aaa_first"), idx("bbb_second"), idx("mmm_mid"), idx("zzz_last")}
	for i := 0; i < len(order)-1; i++ {
		if order[i] < 0 || order[i] >= order[i+1] {
			t.Fatalf("families out of order: %v\n%s", order, a.String())
		}
	}
}

func TestWriteOpenMetricsLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("rmserver_shard_queue_depth", "Shard queue depth high-water mark.")
	r.SetHelp("rmserver_shard_queue_wait_ns", "Batch queue wait.")
	for _, shard := range []string{"0", "1", "2"} {
		r.Gauge(`rmserver_shard_queue_depth{shard="` + shard + `"}`).Set(float64(len(shard)))
		r.Counter(`rmserver_shard_decisions{shard="` + shard + `"}`).Add(10)
		r.Histogram(`rmserver_shard_queue_wait_ns{shard="` + shard + `"}`).Record(100)
	}

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// TYPE/HELP once per family, not once per member.
	for _, meta := range []string{
		"# TYPE rmserver_shard_queue_depth gauge\n",
		"# HELP rmserver_shard_queue_depth Shard queue depth high-water mark.\n",
		"# TYPE rmserver_shard_decisions counter\n",
		"# TYPE rmserver_shard_queue_wait_ns summary\n",
		"# TYPE rmserver_shard_queue_wait_ns_min gauge\n",
		"# TYPE rmserver_shard_queue_wait_ns_max gauge\n",
	} {
		if got := strings.Count(out, meta); got != 1 {
			t.Errorf("%q appears %d times, want 1:\n%s", meta, got, out)
		}
	}
	// One sample line per labeled member; quantile merges into the block.
	for _, want := range []string{
		"rmserver_shard_queue_depth{shard=\"0\"} 1\n",
		"rmserver_shard_queue_depth{shard=\"2\"} 1\n",
		"rmserver_shard_decisions_total{shard=\"1\"} 10\n",
		"rmserver_shard_queue_wait_ns{shard=\"0\",quantile=\"0.5\"} 100\n",
		"rmserver_shard_queue_wait_ns{shard=\"2\",quantile=\"0.99\"} 100\n",
		"rmserver_shard_queue_wait_ns_sum{shard=\"1\"} 100\n",
		"rmserver_shard_queue_wait_ns_count{shard=\"1\"} 1\n",
		"rmserver_shard_queue_wait_ns_min{shard=\"0\"} 100\n",
		"rmserver_shard_queue_wait_ns_max{shard=\"2\"} 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Family samples must be contiguous (no interleaving with the
	// min/max companion families).
	depthFirst := strings.Index(out, `rmserver_shard_queue_wait_ns{shard="0"`)
	depthLast := strings.Index(out, `rmserver_shard_queue_wait_ns_count{shard="2"}`)
	minFirst := strings.Index(out, `rmserver_shard_queue_wait_ns_min{shard="0"}`)
	if !(depthFirst < depthLast && depthLast < minFirst) {
		t.Fatalf("summary family members not contiguous before companions:\n%s", out)
	}
}

func TestWriteOpenMetricsExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rmserver_http_latency_ns")
	h.Record(100)
	h.RecordExemplar(5000, "4bf92f3577b34da6a3ce929d0e0e4736", 1700000000_123_000_000)

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := ` # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 5000 1700000000.123` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("output missing exemplar line %q:\n%s", want, out)
	}
	// Exemplar rides only the 0.99 line.
	if got := strings.Count(out, "# {trace_id="); got != 1 {
		t.Fatalf("exemplar appears %d times, want 1:\n%s", got, out)
	}
}

func TestHistogramExemplarReplacement(t *testing.T) {
	h := NewHistogram()
	if _, ok := h.Exemplar(); ok {
		t.Fatal("empty histogram has exemplar")
	}
	h.RecordExemplar(100, "aaaa", 1_000_000_000)
	h.RecordExemplar(50, "bbbb", 2_000_000_000) // smaller + fresh: keep aaaa
	if ex, _ := h.Exemplar(); ex.TraceID != "aaaa" {
		t.Fatalf("exemplar = %v, want aaaa kept", ex)
	}
	h.RecordExemplar(200, "cccc", 3_000_000_000) // larger: replace
	if ex, _ := h.Exemplar(); ex.TraceID != "cccc" || ex.Value != 200 {
		t.Fatalf("exemplar = %v, want cccc/200", ex)
	}
	// Stale holder: anything fresh replaces after the age bound.
	h.RecordExemplar(1, "dddd", 3_000_000_000+exemplarMaxAgeNS+1)
	if ex, _ := h.Exemplar(); ex.TraceID != "dddd" {
		t.Fatalf("exemplar = %v, want dddd after staleness", ex)
	}
	// Empty trace id records the value but not the exemplar.
	h.RecordExemplar(10_000, "", 0)
	if ex, _ := h.Exemplar(); ex.TraceID != "dddd" {
		t.Fatalf("exemplar = %v, want dddd kept", ex)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	h.Reset()
	if _, ok := h.Exemplar(); ok {
		t.Fatal("Reset did not clear exemplar")
	}
}

func TestSplitSample(t *testing.T) {
	for _, c := range []struct {
		line, name, labels, rest string
		ok                       bool
	}{
		{"x 1", "x", "", " 1", true},
		{"x\t1", "x", "", "\t1", true},
		{`x{a="b"} 1 2`, "x", `{a="b"}`, " 1 2", true},
		{`x{a="b}c",d="e"} 1`, "x", `{a="b}c",d="e"}`, " 1", true},
		{`x{a="q\"}"} 1`, "x", `{a="q\"}"}`, " 1", true},
		{`x{a="# }"} 1 # {t="}"} 2`, "x", `{a="# }"}`, ` 1 # {t="}"} 2`, true},
		// Unbalanced quotes fall back to the first '}'.
		{`x{l="dangling\"} 1`, "x", `{l="dangling\"}`, " 1", true},
		{`x{a="b 1`, "", "", "", false},
		{"name_only", "", "", "", false},
		{" 5", "", "", "", false},
		{"", "", "", "", false},
	} {
		name, labels, rest, ok := splitSample(c.line)
		if name != c.name || labels != c.labels || rest != c.rest || ok != c.ok {
			t.Errorf("splitSample(%q) = %q, %q, %q, %v; want %q, %q, %q, %v",
				c.line, name, labels, rest, ok, c.name, c.labels, c.rest, c.ok)
		}
	}
}

// expositionRegistry reaches every rendering rule of the exposition:
// two bases that sanitize to one name (a.b, a_b), one name under all
// three kinds (x.lat), labeled members, HELP on a base and on a raw
// key (the first member in key order with either wins), a HELP with a
// newline, an exemplar, an empty histogram and non-finite gauges.
func expositionRegistry() *Registry {
	r := NewRegistry()
	r.Counter("a.b").Add(3)
	r.Counter("a_b").Add(4)
	r.SetHelp("a_b", "Two bases, one family.")
	r.Counter("x.lat").Add(9)
	r.Gauge("x.lat").Set(2.5)
	h := r.Histogram("x.lat")
	for _, v := range []int64{10, 20, 40, 80, 5000} {
		h.Record(v)
	}
	r.SetHelp("x.lat", "Latency\nin ns.")
	for i, shard := range []string{"1", "0", "10"} {
		r.Gauge(`q.depth{shard="` + shard + `"}`).Set(float64(i) - 0.25)
		r.Counter(`q.ops{shard="` + shard + `"}`).Add(uint64(100 * i))
	}
	r.SetHelp("q.depth", "Queue depth.")
	r.SetHelp(`q.ops{shard="10"}`, "Ops on shard 10.")
	r.SetHelp("q.ops", "Ops per shard.")
	put := r.Histogram(`rpc.lat{op="put"}`)
	put.Record(7)
	put.RecordExemplar(900, "4bf92f3577b34da6a3ce929d0e0e4736", 1700000000_123_000_000)
	r.Histogram(`rpc.lat{op="get"}`).Record(3)
	r.SetHelp(`rpc.lat{op="put"}`, "RPC latency.")
	r.Histogram("idle.lat")
	r.Gauge("9lives").Set(math.Inf(1))
	r.Gauge("nan").Set(math.NaN())
	return r
}

// TestWriteOpenMetricsGolden pins the exposition byte for byte. The
// golden was rendered by the map-based writer that the streaming one
// replaced, so it also pins that the two agree.
func TestWriteOpenMetricsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.om")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := expositionRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from testdata/exposition.om:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}

// bigmeshShapedRegistry mirrors the instrument mix of the 16x16
// clustered platform's registry: 4096 histograms (eight per app over
// 512 apps, labeled by stage) holding a few samples each, and 6144
// gauges.
func bigmeshShapedRegistry() *Registry {
	r := NewRegistry()
	stages := []string{"latency", "noc_request", "noc_response", "dram_queue",
		"dram_service", "channel_wait", "read", "write"}
	for app := 0; app < 512; app++ {
		for i, st := range stages {
			h := r.Histogram(fmt.Sprintf(`audit.hog%d.stage_ps{stage="%s"}`, app, st))
			for v := int64(1); v <= 4; v++ {
				h.Record(v * int64(1000+app+i))
			}
		}
		for g := 0; g < 12; g++ {
			r.Gauge(fmt.Sprintf("monitor.mem:hog%d.window%d_bytes", app, g)).Set(float64(app*g) / 3)
		}
	}
	return r
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// TestWriteOpenMetricsAllocsBelowOutput bounds the dump's heap cost:
// streaming allocates per instrument, not per output byte, so one
// exposition of a big-mesh-shaped registry allocates fewer bytes than
// it writes.
func TestWriteOpenMetricsAllocsBelowOutput(t *testing.T) {
	r := bigmeshShapedRegistry()
	var out countingWriter
	if err := r.WriteOpenMetrics(&out); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.WriteOpenMetrics(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(out.n) {
		t.Fatalf("one exposition allocated %d bytes for %d bytes of output, want fewer", alloc, out.n)
	}
}

func BenchmarkWriteOpenMetrics(b *testing.B) {
	r := bigmeshShapedRegistry()
	var out countingWriter
	if err := r.WriteOpenMetrics(&out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteOpenMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteOpenMetricsStopsAtWriteError: the first failed write ends
// the stream and is returned.
func TestWriteOpenMetricsStopsAtWriteError(t *testing.T) {
	w := &failingWriter{}
	if err := bigmeshShapedRegistry().WriteOpenMetrics(w); !errors.Is(err, errWriteFailed) {
		t.Fatalf("err = %v, want %v", err, errWriteFailed)
	}
	if w.calls != 1 {
		t.Fatalf("writer called %d times after failing, want 1 call", w.calls)
	}
}

var errWriteFailed = errors.New("write failed")

type failingWriter struct{ calls int }

func (f *failingWriter) Write([]byte) (int, error) {
	f.calls++
	return 0, errWriteFailed
}
