package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	r.Gauge("g").Set(1.5)
	r.Gauge("g").SetMax(0.5) // lower: ignored
	r.Gauge("g").SetMax(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	r.Histogram("h").Record(10)
	if got := r.Histogram("h").Count(); got != 1 {
		t.Errorf("histogram count = %d, want 1", got)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Record(1)
	r.RegisterHistogram("x", NewHistogram())
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "# EOF\n" {
		t.Fatalf("nil registry dump = %q, want just the EOF marker", got)
	}
}

// parseDump reads every sample of an OpenMetrics dump through
// ParseSample, keyed by name plus label block.
func parseDump(t *testing.T, dump []byte) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(string(dump), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := ParseSample(line)
		if err != nil {
			t.Fatalf("dump line does not parse: %v", err)
		}
		out[s.Name+s.Labels] = s.Value
	}
	return out
}

func TestRegistryDumpDeterministicAndParses(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		// Insertion order deliberately unsorted.
		r.Counter("z.last").Add(1)
		r.Counter("a.first").Add(2)
		r.Gauge("m.middle").Set(3.25)
		h := r.Histogram("lat")
		for i := int64(1); i <= 100; i++ {
			h.Record(i * 1000)
		}
		var buf bytes.Buffer
		if err := r.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1, b2 := build(), build()
	if !bytes.Equal(b1, b2) {
		t.Error("identical registries serialize differently")
	}
	out := parseDump(t, b1)
	if out["a_first_total"] != 2 || out["z_last_total"] != 1 {
		t.Errorf("counters: %v", out)
	}
	if out["m_middle"] != 3.25 {
		t.Errorf("gauge m_middle = %v", out["m_middle"])
	}
	// The summary carries count, sum, min, max and the quantiles; the
	// mean is sum/count.
	count, sum := out["lat_count"], out["lat_sum"]
	if count != 100 || out["lat_max"] != 100_000 || out["lat_min"] != 1000 {
		t.Errorf("histogram: count %v min %v max %v", count, out["lat_min"], out["lat_max"])
	}
	if mean := sum / count; mean != 50_500 {
		t.Errorf("histogram mean sum/count = %v, want 50500", mean)
	}
	p50, p95 := out[`lat{quantile="0.5"}`], out[`lat{quantile="0.95"}`]
	if p50 < out["lat_min"] || p95 > out["lat_max"] || p50 > p95 {
		t.Errorf("summary quantiles out of order: p50 %v p95 %v", p50, p95)
	}
}

func TestRegistryRegisterHistogram(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	h.Record(5)
	r.RegisterHistogram("ext", h)
	if r.Histogram("ext") != h {
		t.Error("registered histogram not adopted")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").SetMax(float64(i))
				r.Histogram("h").Record(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h").Count(); got != 4000 {
		t.Errorf("histogram count = %d, want 4000", got)
	}
}
