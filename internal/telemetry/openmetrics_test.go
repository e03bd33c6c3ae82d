package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
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
		var b strings.Builder
		writeMetricName(&b, in)
		if got := b.String(); got != want {
			t.Errorf("writeMetricName(%q) wrote %q, want %q", in, got, want)
		}
		if n := metricNameLen(in); n != len(want) {
			t.Errorf("metricNameLen(%q) = %d, want %d", in, n, len(want))
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

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// TestWriteOpenMetricsAllocsBelowOutput bounds the dump's heap cost
// on a big-mesh-shaped registry. Streaming allocates per instrument,
// not per output byte, so an exposition into io.Discard allocates
// fewer bytes than it writes. Into a bytes.Buffer, as every in-memory
// consumer renders, the exposition is sized first and the buffer grows
// once to the exact size, so the render allocates at most 1.6 times
// what it writes; a buffer grown by doubling allocated about 2.8
// times.
func TestWriteOpenMetricsAllocsBelowOutput(t *testing.T) {
	r := bigmeshShapedRegistry()
	var out countingWriter
	if err := r.WriteOpenMetrics(&out); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		w     func() io.Writer
		limit uint64
	}{
		{"discard", func() io.Writer { return io.Discard }, uint64(out.n) - 1},
		{"buffer", func() io.Writer { return new(bytes.Buffer) }, uint64(out.n) * 8 / 5},
	} {
		if c.name == "buffer" && raceEnabled {
			t.Log("buffer: skipped under the race detector (see race_test.go)")
			continue
		}
		w := c.w()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := r.WriteOpenMetrics(w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(w)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > c.limit {
			t.Errorf("%s: one exposition allocated %d bytes for %d bytes of output, want <= %d", c.name, alloc, out.n, c.limit)
		}
	}
}

// BenchmarkWriteOpenMetrics renders a big-mesh-shaped registry into
// io.Discard (the streaming walk alone) and into a fresh bytes.Buffer
// (sizing walk, one Grow, streaming walk), the path of every in-memory
// consumer.
//
//	go test ./internal/telemetry/ -run '^$' -bench WriteOpenMetrics -benchmem
func BenchmarkWriteOpenMetrics(b *testing.B) {
	r := bigmeshShapedRegistry()
	var out countingWriter
	if err := r.WriteOpenMetrics(&out); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		w    func() io.Writer
	}{
		{"discard", func() io.Writer { return io.Discard }},
		{"buffer", func() io.Writer { return new(bytes.Buffer) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(out.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.WriteOpenMetrics(c.w()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// growRecorder keeps what it is written and records every Grow call.
type growRecorder struct {
	bytes.Buffer
	grows []int
}

func (g *growRecorder) Grow(n int) {
	g.grows = append(g.grows, n)
	g.Buffer.Grow(n)
}

// checkSizedRender renders r into a writer that offers Grow and into
// one that does not. The first must see exactly one Grow(n), n the
// number of bytes it then received, and both must receive one text.
func checkSizedRender(t *testing.T, r *Registry) {
	t.Helper()
	var streamed bytes.Buffer
	if err := r.WriteOpenMetrics(struct{ io.Writer }{&streamed}); err != nil {
		t.Fatal(err)
	}
	var sized growRecorder
	if err := r.WriteOpenMetrics(&sized); err != nil {
		t.Fatal(err)
	}
	if len(sized.grows) != 1 || sized.grows[0] != sized.Len() {
		t.Fatalf("Grow calls %v for %d bytes written, want exactly Grow(%d)", sized.grows, sized.Len(), sized.Len())
	}
	if !bytes.Equal(sized.Bytes(), streamed.Bytes()) {
		t.Fatalf("sized render differs from the streamed one:\n--- sized\n%s--- streamed\n%s", sized.Bytes(), streamed.Bytes())
	}
}

// randomRegistry builds a registry from up to n random operations:
// labelled and unlabelled names (two bases sanitize to one family, one
// starts with a digit, one is empty), every kind under one name, HELP
// on bases and on raw keys, exemplars, and gauges of NaN, ±Inf and -0.
func randomRegistry(seed uint64, n int, help string) *Registry {
	rng := rand.New(rand.NewSource(int64(seed)))
	bases := []string{"a.b", "a_b", "x.lat", "9lives", "q-depth", "rpc.lat", "", "z"}
	labels := []string{"", `{shard="0"}`, `{shard="10"}`, `{op="put",shard="1"}`}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.25, 1e300}
	r := NewRegistry()
	for i := 0; i < n; i++ {
		base := bases[rng.Intn(len(bases))]
		name := base + labels[rng.Intn(len(labels))]
		switch rng.Intn(5) {
		case 0:
			r.Counter(name).Add(rng.Uint64() >> uint(rng.Intn(64)))
		case 1:
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			if rng.Intn(2) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			r.Gauge(name).Set(v)
		case 2:
			h := r.Histogram(name)
			for k := rng.Intn(20); k > 0; k-- {
				h.Record(rng.Int63() >> uint(rng.Intn(63)))
			}
		case 3:
			r.Histogram(name).RecordExemplar(rng.Int63n(1e9), fmt.Sprintf("%016x", rng.Uint64()), rng.Int63())
		case 4:
			if rng.Intn(2) == 0 {
				name = base
			}
			r.SetHelp(name, help)
		}
	}
	return r
}

// FuzzWriteOpenMetricsSize: the size WriteOpenMetrics hands Grow is
// exactly the text it then writes, on random registries.
func FuzzWriteOpenMetricsSize(f *testing.F) {
	f.Add(uint64(1), uint8(40), "Latency\nin ns.")
	f.Add(uint64(2), uint8(0), "")
	f.Add(uint64(3), uint8(200), "a\r\nb")
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, help string) {
		checkSizedRender(t, randomRegistry(seed, int(n), help))
	})
}

// TestWriteOpenMetricsSize is FuzzWriteOpenMetricsSize's unit
// companion: the nil and empty registries, the golden registry, gauges
// of -Inf and -0 with a HELP holding "\r", the big-mesh shape and a
// random registry.
func TestWriteOpenMetricsSize(t *testing.T) {
	specials := NewRegistry()
	specials.Gauge("neg.inf").Set(math.Inf(-1))
	specials.Gauge(`neg.zero{k="v"}`).Set(math.Copysign(0, -1))
	specials.SetHelp("neg.zero", "Minus\r\nzero.")
	for name, r := range map[string]*Registry{
		"nil":      nil,
		"empty":    NewRegistry(),
		"golden":   expositionRegistry(),
		"specials": specials,
		"bigmesh":  bigmeshShapedRegistry(),
		"random":   randomRegistry(7, 200, "x\r\ny"),
	} {
		t.Run(name, func(t *testing.T) { checkSizedRender(t, r) })
	}
}

// nopGrower discards its writes and ignores Grow: rendering into it
// runs the sizing walk as well as the streaming one.
type nopGrower struct{}

func (nopGrower) Write(p []byte) (int, error) { return len(p), nil }
func (nopGrower) Grow(int)                    {}

// TestWriteOpenMetricsSizingWalkAllocatesNothing: the sizing walk
// reuses the streaming walk's buffers, so a writer that offers Grow
// costs no more allocations than one that does not.
func TestWriteOpenMetricsSizingWalkAllocatesNothing(t *testing.T) {
	r := bigmeshShapedRegistry()
	streamed := testing.AllocsPerRun(3, func() { r.WriteOpenMetrics(io.Discard) })
	sized := testing.AllocsPerRun(3, func() { r.WriteOpenMetrics(nopGrower{}) })
	if sized != streamed {
		t.Fatalf("render with a sizing walk made %v allocations, without %v; want equal", sized, streamed)
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
