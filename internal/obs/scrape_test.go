package obs

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

const testExposition = `# HELP rmserver_decision_latency_ns Per-decision latency.
# TYPE rmserver_decision_latency_ns summary
rmserver_decision_latency_ns{quantile="0.5"} 180
rmserver_decision_latency_ns{quantile="0.95"} 400
rmserver_decision_latency_ns{quantile="0.99"} 900 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 900 1700000000.123
rmserver_decision_latency_ns_sum 5400
rmserver_decision_latency_ns_count 30
# TYPE rmserver_shard_decisions counter
rmserver_shard_decisions_total 1000
rmserver_shard_decisions_total{shard="0"} 600
rmserver_shard_decisions_total{shard="1"} 400
# TYPE rmserver_breaker_state gauge
rmserver_breaker_state 0
# TYPE weird gauge
weird{msg="has space, and } brace"} 7
# EOF
`

func TestScraperIngestParsesExposition(t *testing.T) {
	sc := NewScraper("", 16)
	n := sc.Ingest([]byte(testExposition), 1000)
	if n != 10 {
		t.Fatalf("ingested %d samples, want 10 (names: %v)", n, sc.Names())
	}
	for name, want := range map[string]float64{
		`rmserver_decision_latency_ns{quantile="0.99"}`: 900, // exemplar clause stripped
		"rmserver_decision_latency_ns_count":            30,
		"rmserver_shard_decisions_total":                1000,
		`rmserver_shard_decisions_total{shard="1"}`:     400,
		"rmserver_breaker_state":                        0,
		`weird{msg="has space, and } brace"}`:           7,
	} {
		p, ok := sc.Latest(name)
		if !ok || p.Value != want || p.UnixMilli != 1000 {
			t.Errorf("Latest(%q) = %+v, %v; want value %v at 1000", name, p, ok, want)
		}
	}
	if _, ok := sc.Latest("nope"); ok {
		t.Error("Latest on unknown series reported ok")
	}
}

func TestScraperRingAndRate(t *testing.T) {
	sc := NewScraper("", 4)
	// 6 scrapes into a 4-point ring: counter grows 100/s, then resets.
	for i, v := range []float64{0, 100, 200, 300, 5, 105} {
		sc.Ingest([]byte(fmt.Sprintf("c_total %g\n# EOF\n", v)), int64(i+1)*1000)
	}
	pts := sc.Points("c_total")
	if len(pts) != 4 || pts[0].Value != 200 || pts[3].Value != 105 {
		t.Fatalf("ring points = %+v", pts)
	}
	// Deltas over the retained window: +100, reset (skipped), +100 over
	// 3s elapsed.
	rate, ok := sc.Rate("c_total")
	if !ok || math.Abs(rate-200.0/3) > 1e-9 {
		t.Fatalf("rate = %v, %v; want %v", rate, ok, 200.0/3)
	}
	if _, ok := sc.Rate("missing"); ok {
		t.Error("rate on unknown series reported ok")
	}
}

func TestScraperScrapeHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "g 42\n# EOF\n")
	}))
	defer srv.Close()
	sc := NewScraper(srv.URL, 8)
	if err := sc.Scrape(); err != nil {
		t.Fatal(err)
	}
	if p, ok := sc.Latest("g"); !ok || p.Value != 42 {
		t.Fatalf("Latest(g) = %+v, %v", p, ok)
	}
	okN, failN, lastErr := sc.Stats()
	if okN != 1 || failN != 0 || lastErr != nil {
		t.Fatalf("stats = %d ok, %d failed, %v", okN, failN, lastErr)
	}

	// A failing endpoint counts the failure but keeps existing series.
	srv.Close()
	if err := sc.Scrape(); err == nil {
		t.Fatal("scrape of closed server succeeded")
	}
	if p, ok := sc.Latest("g"); !ok || p.Value != 42 {
		t.Fatalf("series lost after failed scrape: %+v, %v", p, ok)
	}
	if _, failN, lastErr = sc.Stats(); failN != 1 || lastErr == nil {
		t.Fatalf("failure not recorded: %d, %v", failN, lastErr)
	}
}

func TestEvaluateLiveBurnRates(t *testing.T) {
	sc := NewScraper("", 16)
	// 5 points: p99 healthy in 4 of 5; counter advancing 2e5/s then
	// stalling (rate 0 on the last pair); breaker open once.
	for i, tc := range []struct {
		p99, ctr, brk float64
	}{
		{9e5, 0, 0}, {8e5, 2e5, 0}, {2e6, 4e5, 1}, {9e5, 6e5, 0}, {9e5, 6e5, 0},
	} {
		payload := fmt.Sprintf(
			"rmserver_decision_latency_ns{quantile=\"0.99\"} %g\n"+
				"rmserver_shard_decisions_total %g\n"+
				"rmserver_breaker_state %g\n# EOF\n", tc.p99, tc.ctr, tc.brk)
		sc.Ingest([]byte(payload), int64(i+1)*1000)
	}
	sts, err := sc.EvaluateLive(LiveServiceSLOs())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]LiveStatus{}
	for _, st := range sts {
		byName[st.SLO.Name] = st
	}

	p99 := byName["live-decision-p99"]
	if p99.Points != 5 || p99.Good != 4 || p99.Met {
		t.Fatalf("p99 status = %+v", p99)
	}
	// Attainment 0.8 against target 0.95 burns 4x budget.
	if math.Abs(p99.BurnRate-0.2/0.05) > 1e-9 {
		t.Fatalf("p99 burn = %v, want 4", p99.BurnRate)
	}
	if p99.Current != 9e5 {
		t.Fatalf("p99 current = %v", p99.Current)
	}

	tp := byName["live-throughput"]
	// 4 pairs: rates 2e5, 2e5, 2e5, 0 → 3 good of 4, target 0.9 missed.
	if tp.Points != 4 || tp.Good != 3 || tp.Met {
		t.Fatalf("throughput status = %+v", tp)
	}
	if tp.Current != 0 {
		t.Fatalf("throughput current = %v, want stalled 0", tp.Current)
	}

	brk := byName["live-breaker-closed"]
	if brk.Points != 5 || brk.Good != 4 || brk.Met {
		t.Fatalf("breaker status = %+v", brk)
	}
	// Attainment 0.8 against a 1% budget burns 20x.
	if math.Abs(brk.BurnRate-0.2/0.01) > 1e-9 {
		t.Fatalf("breaker burn = %v, want 20", brk.BurnRate)
	}

	// Empty window: attainment 1, zero burn, met.
	empty, err := NewScraper("", 4).EvaluateLive(LiveServiceSLOs())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range empty {
		if st.Points != 0 || st.Attainment != 1 || st.BurnRate != 0 || !st.Met {
			t.Fatalf("empty-window status = %+v", st)
		}
	}
}

func TestLiveSLOValidate(t *testing.T) {
	bad := []LiveSLO{
		{Sample: "x", Op: ">=", Target: 0.9},
		{Name: "n", Op: ">=", Target: 0.9},
		{Name: "n", Sample: "x", Op: "==", Target: 0.9},
		{Name: "n", Sample: "x", Op: ">=", Target: 0},
		{Name: "n", Sample: "x", Op: ">=", Target: 1.5},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d validated: %+v", i, l)
		}
		if _, err := NewScraper("", 4).EvaluateLive([]LiveSLO{l}); err == nil {
			t.Errorf("case %d evaluated: %+v", i, l)
		}
	}
	ok := LiveSLO{Name: "n", Sample: "x", Op: "<=", Goal: 1, Target: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSampleLineEdges(t *testing.T) {
	s := NewScraper("http://unused", 4)
	for _, line := range []string{
		"",
		"# TYPE x gauge",
		"name_only",
		"name notanumber",
		`unterminated{a="b 1`,
		" 5",
	} {
		if n := s.Ingest([]byte(line), 1); n != 0 {
			t.Errorf("Ingest(%q) recorded %d samples; want skip", line, n)
		}
	}
	if n := s.Ingest([]byte(`m{a="x\"y"} 3 1700000000`+"\n"+`m{a="b}c",d="#"} 4 # {t="x}"} 1`), 2); n != 2 {
		t.Fatalf("Ingest recorded %d samples, want 2", n)
	}
	for name, want := range map[string]float64{`m{a="x\"y"}`: 3, `m{a="b}c",d="#"}`: 4} {
		if p, ok := s.Latest(name); !ok || p.Value != want || p.UnixMilli != 2 {
			t.Errorf("series %q latest = %+v, %v; want value %v", name, p, ok, want)
		}
	}
	if names := s.Names(); len(names) != 2 {
		t.Fatalf("series %v, want the two sample lines only", names)
	}
}
