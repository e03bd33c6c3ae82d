package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseSample(t *testing.T) {
	for _, c := range []struct {
		line          string
		name, labels  string
		value         float64
		exemplar, err string
	}{
		{line: "x 1", name: "x", value: 1},
		{line: "x\t-2.5e3 1700000000", name: "x", value: -2500},
		{line: `x{a="b}c",d="#"} 4 # {t="x}"} 1`, name: "x", labels: `{a="b}c",d="#"}`, value: 4, exemplar: `{t="x}"} 1`},
		{line: `m{a="x\"y"} 3 1700000000`, name: "m", labels: `{a="x\"y"}`, value: 3},
		{line: "ns:sub_total +Inf", name: "ns:sub_total", value: math.Inf(1)},
		{line: "x -Inf", name: "x", value: math.Inf(-1)},
		{line: "", err: "malformed sample line"},
		{line: "# TYPE x gauge", err: "malformed sample line"},
		{line: "name_only", err: "malformed sample line"},
		{line: " 5", err: "malformed sample line"},
		{line: "0bad 1", err: "illegal metric name"},
		{line: `x{a="b 1`, err: "malformed sample line"},
		{line: `x{a="b"}1`, err: "want value"},
		{line: "x ", err: "want value"},
		{line: "x 1 2 3", err: "want value"},
		{line: "x notanumber", err: "unparseable sample value"},
		{line: "x 1 soon", err: "unparseable sample timestamp"},
	} {
		s, err := ParseSample(c.line)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseSample(%q) err = %v, want %q", c.line, err, c.err)
			}
			continue
		}
		if err != nil || s.Name != c.name || s.Labels != c.labels || s.Value != c.value || s.Exemplar != c.exemplar {
			t.Errorf("ParseSample(%q) = %+v, %v", c.line, s, err)
		}
	}
	if s, err := ParseSample("x NaN"); err != nil || !math.IsNaN(s.Value) {
		t.Errorf("ParseSample(x NaN) = %+v, %v", s, err)
	}
}

// escapeLabelValue escapes a string as an exposition label value
// (\\, \" and \n), as a well-behaved caller does before composing a
// labeled instrument name.
func escapeLabelValue(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

// FuzzParseSample is a render→parse round trip: a registry built from
// the seed (counters, one gauge holding the fuzzed value, histograms
// with an exemplar), with the fuzzed string as a label value, is
// rendered by WriteOpenMetrics. Every sample line must parse, with a
// value bit-equal to the instrument it renders, and its label set and
// exemplar must pass the strict validators. The seed corpus under
// testdata/fuzz/ replays on every plain `go test`; explore further with
//
//	go test ./internal/telemetry/ -run '^$' -fuzz FuzzParseSample -fuzztime 10s
func FuzzParseSample(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, label string, gauge float64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		labels := fmt.Sprintf(`{k="%s",n="%d"}`, escapeLabelValue(label), rng.Intn(100))
		r := NewRegistry()
		want := make(map[string]float64)
		for i := 0; i < 3; i++ {
			v := rng.Uint64() >> uint(rng.Intn(64))
			r.Counter(fmt.Sprintf("c%d%s", i, labels)).Add(v)
			want[fmt.Sprintf("c%d_total%s", i, labels)] = float64(v)
		}
		r.Gauge("g" + labels).Set(gauge)
		want["g"+labels] = gauge
		r.Gauge("plain").Set(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		want["plain"] = r.Gauge("plain").Value()
		h := r.Histogram("h" + labels)
		for n := rng.Intn(50); n >= 0; n-- {
			h.Record(rng.Int63() >> uint(rng.Intn(63)))
		}
		h.RecordExemplar(rng.Int63n(1e9), fmt.Sprintf("%016x", rng.Uint64()), rng.Int63())
		s := h.Summarize()
		for q, v := range map[string]int64{"0.5": s.P50, "0.95": s.P95, "0.99": s.P99} {
			want[string(appendLabels([]byte("h"), labels, "quantile", q))] = float64(v)
		}
		for suffix, v := range map[string]float64{"_sum": float64(s.Sum), "_count": float64(s.Count),
			"_min": float64(s.Min), "_max": float64(s.Max)} {
			want["h"+suffix+labels] = v
		}

		var buf bytes.Buffer
		if err := r.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		seen, exemplars := 0, 0
		for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			got, err := ParseSample(line)
			if err != nil {
				t.Fatalf("rendered line does not parse: %v", err)
			}
			key := got.Name + got.Labels
			v, ok := want[key]
			if !ok {
				t.Fatalf("line %q parses as unknown sample %q", line, key)
			}
			if math.Float64bits(got.Value) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(got.Value)) {
				t.Fatalf("line %q parses to %v (bits %x), rendered from %v (bits %x)",
					line, got.Value, math.Float64bits(got.Value), v, math.Float64bits(v))
			}
			if got.Labels != "" {
				if err := ValidateLabels(got.Labels); err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
			}
			if got.Exemplar != "" {
				exemplars++
				if err := ValidateExemplar(got.Exemplar); err != nil {
					t.Fatalf("line %q exemplar: %v", line, err)
				}
			}
			seen++
		}
		if seen != len(want) || exemplars != 1 {
			t.Fatalf("parsed %d samples (%d exemplars), rendered %d (1 exemplar):\n%s", seen, exemplars, len(want), buf.String())
		}
	})
}
