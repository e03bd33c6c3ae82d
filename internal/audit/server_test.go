package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	// Without sources: healthz up, metrics a valid empty exposition,
	// progress an empty object, slo an empty list.
	empty, err := NewServer("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	base := "http://" + empty.Addr()
	if code, body, _ := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body, ct := get(t, base+"/metrics"); code != 200 || body != "# EOF\n" || ct != telemetry.OpenMetricsContentType {
		t.Fatalf("empty metrics = %d %q %q", code, body, ct)
	}
	if code, body, _ := get(t, base+"/progress"); code != 200 || body != "{}\n" {
		t.Fatalf("empty progress = %d %q", code, body)
	}
	if code, body, ct := get(t, base+"/slo"); code != 200 || body != "[]\n" || ct != "application/json" {
		t.Fatalf("empty slo = %d %q %q", code, body, ct)
	}

	// With sources, every GET renders the current state.
	reg := telemetry.NewRegistry()
	events := reg.Counter("sim.events")
	events.Add(42)
	s, err := NewServer("127.0.0.1:0", reg.WriteOpenMetrics,
		func() any { return map[string]int{"done": 3, "total": 8} },
		func() (any, error) { return []map[string]any{{"name": "bound-conformance", "met": true}}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base = "http://" + s.Addr()
	if _, body, _ := get(t, base+"/metrics"); !strings.Contains(body, "sim_events_total 42") || !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("metrics body = %q", body)
	}
	events.Inc()
	if _, body, _ := get(t, base+"/metrics"); !strings.Contains(body, "sim_events_total 43") {
		t.Fatalf("second scrape did not re-render: %q", body)
	}
	if _, body, ct := get(t, base+"/progress"); !strings.Contains(body, `"done": 3`) || ct != "application/json" {
		t.Fatalf("progress = %q %q", body, ct)
	}
	if _, body, ct := get(t, base+"/slo"); !strings.Contains(body, `"bound-conformance"`) || ct != "application/json" {
		t.Fatalf("slo = %q %q", body, ct)
	}

	// pprof index answers.
	if code, _, _ := get(t, base+"/debug/pprof/"); code != 200 {
		t.Fatalf("pprof index = %d", code)
	}
}

// TestServerProgressAndHealthzContract pins the handlers' HTTP
// contract: status codes, content types, a decodable JSON shape for
// /progress (the schema socsim and sweep serve and external watchers
// poll), and a 500 with no partial payload when a source fails.
func TestServerProgressAndHealthzContract(t *testing.T) {
	type progress struct {
		SimTimeNS  float64 `json:"sim_time_ns"`
		HorizonNS  float64 `json:"horizon_ns"`
		Violations uint64  `json:"violations"`
	}
	want := progress{1.5e6, 4e6, 3}
	s, err := NewServer("127.0.0.1:0", nil, func() any { return want }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body, ct := get(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("healthz = %d %q %q", code, body, ct)
	}
	code, body, ct = get(t, base+"/progress")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("progress = %d %q", code, ct)
	}
	var got progress
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("progress body is not JSON: %v\n%s", err, body)
	}
	if got != want {
		t.Fatalf("progress round-trip = %+v, want %+v", got, want)
	}

	// A failing source answers 500, never a 200 with what it rendered
	// before failing.
	failing, err := NewServer("127.0.0.1:0",
		func(w io.Writer) error {
			io.WriteString(w, "# TYPE half counter\n")
			return errors.New("render failed")
		},
		func() any { return map[string]any{"bad": func() {}} },
		func() (any, error) { return nil, errors.New("store unreadable") })
	if err != nil {
		t.Fatal(err)
	}
	defer failing.Close()
	for path, msg := range map[string]string{
		"/metrics":  "render failed",
		"/progress": "unsupported type",
		"/slo":      "store unreadable",
	} {
		code, body, _ := get(t, "http://"+failing.Addr()+path)
		if code != http.StatusInternalServerError || !strings.Contains(body, msg) || strings.Contains(body, "half") {
			t.Errorf("%s with a failing source = %d %q, want 500 naming %q", path, code, body, msg)
		}
	}
}

// TestServerServesFinalSnapshotAfterHalt drives a simulation that
// halts mid-horizon: the endpoint must keep serving the state at the
// halt, the evidence of where the run stopped, scrape after scrape.
func TestServerServesFinalSnapshotAfterHalt(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	ticks := reg.Counter("sim.ticks")
	s, err := NewServer("127.0.0.1:0", reg.WriteOpenMetrics,
		func() any { return map[string]float64{"sim_time_ns": eng.Now().Nanoseconds()} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	eng.Every(sim.Microsecond, func() { ticks.Inc() })
	eng.At(10*sim.Microsecond+sim.Nanosecond, func() { eng.Halt() })
	eng.RunUntil(100 * sim.Microsecond)

	if !eng.Halted() {
		t.Fatal("engine did not halt")
	}
	if eng.Now().Nanoseconds() >= 100*1000 {
		t.Fatalf("halt did not cut the horizon: now=%v", eng.Now())
	}
	for i := 0; i < 3; i++ {
		code, body, _ := get(t, base+"/metrics")
		if code != http.StatusOK || !strings.Contains(body, "sim_ticks_total 10") {
			t.Fatalf("post-halt metrics = %d %q", code, body)
		}
	}
	_, body, _ := get(t, base+"/progress")
	var prog map[string]float64
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("post-halt progress: %v", err)
	}
	if prog["sim_time_ns"] != 10_001 {
		t.Fatalf("post-halt progress = %v, want the halt time", prog)
	}
	if code, body, _ := get(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz after halt = %d %q", code, body)
	}
}

// TestConcurrentScrapesDuringObserve runs many /metrics scrapes while
// the "simulation" goroutine keeps observing transactions. The metrics
// source takes the simulation's lock only to mirror the auditor and
// render into the server's buffer. Run under -race.
func TestConcurrentScrapesDuringObserve(t *testing.T) {
	a := New(Config{})
	aa := a.Register("crit", Bound{DelayBoundNS: 50})
	reg := telemetry.NewRegistry()
	var mu sync.Mutex // guards a between the simulation and renders
	s, err := NewServer("127.0.0.1:0", func(w io.Writer) error {
		mu.Lock()
		defer mu.Unlock()
		a.PublishMetrics(reg)
		return reg.WriteOpenMetrics(w)
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := "http://" + s.Addr() + "/metrics"

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// The simulation thread: observe in a tight loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			var b Breakdown
			b[StageMemGuard] = sim.NS(float64(i % 90))
			b[StageDRAMService] = sim.NS(15)
			mu.Lock()
			aa.Observe(sim.Time(i), b)
			mu.Unlock()
		}
		close(stop)
	}()

	// Four concurrent scrapers hammering the endpoint until the run ends.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !strings.HasSuffix(string(body), "# EOF\n") {
					t.Errorf("truncated scrape: %q", string(body))
					return
				}
			}
		}()
	}
	wg.Wait()

	if a.TotalViolations() == 0 {
		t.Fatal("expected violations from the synthetic load")
	}
	if _, body, _ := get(t, url); !strings.Contains(body, "audit_crit_violations") {
		t.Fatalf("final scrape lacks the auditor's families:\n%s", body)
	}
}

func TestServerCloseIdempotentScrapeAfterCloseFails(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("scrape after close should fail")
	}
}
