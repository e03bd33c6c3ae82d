package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// runInstrumented builds a fresh platform with two apps and a MemGuard
// budget, runs it for 2ms with full telemetry, and returns the metrics
// and trace dumps.
func runInstrumented(t *testing.T) (metrics, traceJSON []byte) {
	t.Helper()
	p := newPlatform(t, nil)
	suite, err := p.EnableTelemetry(true)
	if err != nil {
		t.Fatal(err)
	}
	crit := addApp(t, p, "crit", noc.Coord{X: 0, Y: 0}, 0, 1, trace.ControlLoop, 0)
	hog := addApp(t, p, "hog", noc.Coord{X: 1, Y: 0}, 1, 2, trace.VisionPipeline, 1<<30)
	if err := p.SetMemBudget("hog", 16*1024); err != nil {
		t.Fatal(err)
	}
	crit.Start()
	hog.Start()
	p.RunFor(2 * sim.Millisecond)
	crit.Stop()
	hog.Stop()
	p.SnapshotMetrics()

	var mbuf, tbuf bytes.Buffer
	if err := suite.Registry.WriteOpenMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := suite.Tracer.WriteJSON(&tbuf); err != nil {
		t.Fatal(err)
	}
	return mbuf.Bytes(), tbuf.Bytes()
}

func TestPlatformTelemetryDeterministic(t *testing.T) {
	m1, t1 := runInstrumented(t)
	m2, t2 := runInstrumented(t)
	if !bytes.Equal(m1, m2) {
		t.Error("two identical runs produced different metrics dumps")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("two identical runs produced different trace dumps")
	}
}

func TestPlatformTraceCoversSubsystems(t *testing.T) {
	_, tj := runInstrumented(t)
	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tj, &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Collect track names from thread_name metadata.
	tracks := map[string]bool{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if n, ok := ev.Args["name"].(string); ok {
				tracks[n] = true
			}
		}
	}
	for _, want := range []string{"noc", "memguard", "sim"} {
		if !tracks[want] {
			t.Errorf("trace missing track %q (have %v)", want, tracks)
		}
	}
	// DRAM spans live on per-bank tracks.
	foundBank := false
	for n := range tracks {
		if len(n) > 9 && n[:9] == "dram.bank" {
			foundBank = true
		}
	}
	if !foundBank {
		t.Errorf("trace missing dram bank tracks (have %v)", tracks)
	}
}

func TestPlatformMetricsContent(t *testing.T) {
	mj, _ := runInstrumented(t)
	// Every sample line of the dump, keyed by name plus label block.
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(string(mj), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := telemetry.ParseSample(line)
		if err != nil {
			t.Fatalf("metrics dump line does not parse: %v", err)
		}
		samples[s.Name+s.Labels] = s.Value
	}
	for _, counter := range []string{"sim_events_total", "dram_reads_total", "noc_delivered_total", "memguard_requests_total"} {
		if samples[counter] == 0 {
			t.Errorf("%s counter missing or zero", counter)
		}
	}
	if _, ok := samples["app_crit_read_latency_ps_count"]; !ok {
		t.Error("app latency histogram not adopted into registry")
	}
	if _, ok := samples["monitor_mem_hog_total_bytes"]; !ok {
		t.Error("memguard PMU monitor snapshot missing")
	}
	if _, ok := samples["monitor_noc_crit_total_bytes"]; !ok {
		t.Error("noc PMU monitor snapshot missing")
	}
}

func TestEnableTelemetryTwiceFails(t *testing.T) {
	p := newPlatform(t, nil)
	if _, err := p.EnableTelemetry(false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableTelemetry(false); err == nil {
		t.Error("second EnableTelemetry accepted")
	}
	if p.Telemetry() == nil {
		t.Error("Telemetry() returned nil after enable")
	}
}
