package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// exec runs obsq with args and returns (exit code, stdout, stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// benchFile writes a kernel-bench-shaped JSON file and returns its
// path; eventsPerSec parameterizes the injected-regression tests.
func benchFile(t *testing.T, dir string, eventsPerSec float64) string {
	t.Helper()
	doc := map[string]any{
		"benchmark": "kernel_dispatch",
		"events":    200000,
		"new": map[string]any{
			"ns_per_event":     1e9 / eventsPerSec,
			"events_per_sec":   eventsPerSec,
			"allocs_per_event": 0.0,
		},
		"speedup": 2.0,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// benchFileParallel writes a bench file in the current BENCH_kernel.json
// schema — the per-partition-count scaling series plus the big-mesh
// platform series — with the kernel 4-partition and big-mesh
// 8-partition events/sec parameterized for regression-injection tests.
func benchFileParallel(t *testing.T, dir, name string, p4PerSec, bigmeshP8PerSec float64) string {
	t.Helper()
	point := func(parts int, perSec float64) map[string]any {
		return map[string]any{
			"partitions":       parts,
			"ns_per_event":     1e9 / perSec,
			"events_per_sec":   perSec,
			"allocs_per_event": 0.001,
		}
	}
	const bigmeshP0PerSec = 2.3e6
	bigmesh := func(parts int, perSec float64) map[string]any {
		return map[string]any{
			"partitions":     parts,
			"events_per_sec": perSec,
			"events":         190466,
			"speedup":        perSec / bigmeshP0PerSec,
			"gomaxprocs":     8,
		}
	}
	doc := map[string]any{
		"benchmark": "kernel_dispatch",
		"events":    100000,
		"new": map[string]any{
			"ns_per_event":     60.0,
			"events_per_sec":   16.6e6,
			"allocs_per_event": 0.0,
		},
		"speedup": 2.2,
		"parallel": map[string]any{
			"gomaxprocs": 4,
			"series": []any{
				point(1, 15.7e6),
				point(2, 16.4e6),
				point(4, p4PerSec),
				point(8, 23.5e6),
			},
			"bigmesh": []any{
				bigmesh(0, bigmeshP0PerSec),
				bigmesh(1, 2.4e6),
				bigmesh(4, 5.1e6),
				bigmesh(8, bigmeshP8PerSec),
			},
		},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestIngestBenchParallelSeries(t *testing.T) {
	path := benchFileParallel(t, t.TempDir(), "bench.json", 19.1e6, 7.5e6)
	name, vals, err := ingestBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "kernel_dispatch" {
		t.Fatalf("benchmark name = %q", name)
	}
	// The series flatten by their partitions discriminator, never by
	// array index, so the metric names survive reordering or extending
	// the series. parallel.bigmesh is the clustered-platform scaling
	// series (p0 = the sequential engine); CI's committed-trajectory
	// gate judges its same-run speedup at p8.
	for metric, want := range map[string]float64{
		"parallel.gomaxprocs":                 4,
		"parallel.series.events_per_sec_p1":   15.7e6,
		"parallel.series.events_per_sec_p4":   19.1e6,
		"parallel.series.events_per_sec_p8":   23.5e6,
		"parallel.series.allocs_per_event_p2": 0.001,
		"parallel.bigmesh.events_per_sec_p0":  2.3e6,
		"parallel.bigmesh.events_per_sec_p8":  7.5e6,
		"parallel.bigmesh.events_p4":          190466,
		"parallel.bigmesh.speedup_p0":         1,
		"parallel.bigmesh.speedup_p8":         7.5e6 / 2.3e6,
		"new.events_per_sec":                  16.6e6,
	} {
		if got, ok := vals[metric]; !ok || got != want {
			t.Errorf("vals[%q] = %v (present=%v), want %v", metric, got, ok, want)
		}
	}
	for k := range vals {
		if strings.Contains(k, "series.0") || strings.Contains(k, "partitions") {
			t.Errorf("index- or discriminator-named leaf leaked: %q", k)
		}
	}
}

func TestSentinelParallelScalingRegression(t *testing.T) {
	// The parallel-scaling shape of a kernel record: a drop confined to
	// the 4-partition series point must still trip the sentinel, which
	// requires the flattener to name the point stably and the direction
	// heuristics to read events_per_sec_p4 as higher-better.
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	good := benchFileParallel(t, dir, "good.json", 19.1e6, 7.5e6)
	for i := 0; i < 2; i++ {
		if code, _, errOut := exec(t, "record", "-store", store, "-bench", good); code != 0 {
			t.Fatalf("record failed: %s", errOut)
		}
	}
	if code, _, errOut := exec(t, "sentinel", "-store", store, "-min-history", "1"); code != 0 {
		t.Fatalf("identical parallel series flagged: %s", errOut)
	}

	bad := benchFileParallel(t, dir, "bad.json", 1.91e6, 7.5e6)
	if code, _, errOut := exec(t, "record", "-store", store, "-bench", bad); code != 0 {
		t.Fatalf("bad record failed: %s", errOut)
	}
	code, out, errOut := exec(t, "sentinel", "-store", store, "-min-history", "1")
	if code != 1 {
		t.Fatalf("p4 scaling collapse exit = %d, stderr = %q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "parallel.series.events_per_sec_p4") {
		t.Fatalf("finding does not name the regressed series point:\n%s", out)
	}
}

func TestSentinelBigMeshScalingRegression(t *testing.T) {
	// The big-mesh gate's shape: a collapse confined to the big-mesh
	// 8-partition point must trip the sentinel under -only
	// parallel.bigmesh.speedup_p8, the same-run p8-over-p0 ratio CI's
	// committed-trajectory step names.
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	good := benchFileParallel(t, dir, "good.json", 19.1e6, 7.5e6)
	for i := 0; i < 2; i++ {
		if code, _, errOut := exec(t, "record", "-store", store, "-bench", good); code != 0 {
			t.Fatalf("record failed: %s", errOut)
		}
	}
	if code, _, errOut := exec(t, "sentinel", "-store", store, "-min-history", "1",
		"-only", "parallel.bigmesh.speedup_p8"); code != 0 {
		t.Fatalf("identical big-mesh series flagged: %s", errOut)
	}

	bad := benchFileParallel(t, dir, "bad.json", 19.1e6, 0.75e6)
	if code, _, errOut := exec(t, "record", "-store", store, "-bench", bad); code != 0 {
		t.Fatalf("bad record failed: %s", errOut)
	}
	code, out, errOut := exec(t, "sentinel", "-store", store, "-min-history", "1",
		"-only", "parallel.bigmesh.speedup_p8")
	if code != 1 {
		t.Fatalf("big-mesh p8 collapse exit = %d, stderr = %q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "parallel.bigmesh.speedup_p8") {
		t.Fatalf("finding does not name the big-mesh series point:\n%s", out)
	}
}

func TestRunUsageAndUnknownCommand(t *testing.T) {
	if code, _, _ := exec(t); code != 2 {
		t.Fatalf("bare obsq exit = %d, want 2", code)
	}
	if code, _, errOut := exec(t, "frobnicate"); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Fatalf("unknown command exit = %d, stderr = %q", code, errOut)
	}
	if code, out, _ := exec(t, "help"); code != 0 || !strings.Contains(out, "sentinel") {
		t.Fatalf("help exit = %d, out = %q", code, out)
	}
}

func TestRecordQuerySeriesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	bench := benchFile(t, dir, 14.7e6)

	code, out, errOut := exec(t, "record", "-store", store, "-bench", bench, "-config", "gate=speedup,bench=kernel")
	if code != 0 {
		t.Fatalf("record failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "label=kernel_dispatch") {
		t.Fatalf("record output = %q, want the bench's own name", out)
	}

	// Explicit values merge over the ingested ones.
	if code, _, errOut = exec(t, "record", "-store", store, "-bench", bench,
		"-values", "new.events_per_sec=15e6"); code != 0 {
		t.Fatalf("second record failed: %s", errOut)
	}

	code, out, _ = exec(t, "query", "-store", store)
	if code != 0 || !strings.Contains(out, "kernel_dispatch") || !strings.Contains(out, "ok") {
		t.Fatalf("query table (%d):\n%s", code, out)
	}

	code, out, _ = exec(t, "query", "-store", store, "-json")
	if code != 0 {
		t.Fatal("json query failed")
	}
	var recs []obs.RunRecord
	if err := json.Unmarshal([]byte(out), &recs); err != nil {
		t.Fatalf("query -json is not JSON: %v\n%s", err, out)
	}
	if len(recs) != 2 || recs[0].Values["new.events_per_sec"] != 14.7e6 || recs[0].ConfigFP == "" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[1].Values["new.events_per_sec"] != 15e6 {
		t.Fatalf("-values did not override ingest: %+v", recs[1].Values)
	}

	code, out, _ = exec(t, "series", "-store", store, "-metric", "new.events_per_sec")
	if code != 0 || out != "1.47e+07\n1.5e+07\n" {
		t.Fatalf("series (%d) = %q", code, out)
	}

	code, out, _ = exec(t, "labels", "-store", store)
	if code != 0 || !strings.Contains(out, "bench") {
		t.Fatalf("labels (%d) = %q", code, out)
	}
}

func TestRecordFlagValidation(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	if code, _, _ := exec(t, "record", "-store", store); code != 2 {
		t.Fatalf("label-less record exit = %d, want 2", code)
	}
	if code, _, _ := exec(t, "record", "-store", store, "-label", "x", "-values", "nonsense"); code != 1 {
		t.Fatal("malformed -values accepted")
	}
	if code, _, _ := exec(t, "record", "-store", store, "-label", "x", "-config", "nonsense"); code != 1 {
		t.Fatal("malformed -config accepted")
	}
	if code, _, _ := exec(t, "series", "-store", store); code != 2 {
		t.Fatal("metric-less series accepted")
	}
}

func TestRecordEmbedsMetricsAndFailure(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	om := filepath.Join(dir, "run.om")
	if err := os.WriteFile(om, []byte("# TYPE x gauge\nx 1\n# EOF\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := exec(t, "record", "-store", store, "-kind", "contention",
		"-label", "cell", "-seed", "7", "-metrics", om, "-err", "boom"); code != 0 {
		t.Fatalf("record failed: %s", errOut)
	}
	code, out, _ := exec(t, "query", "-store", store, "-failed", "-json", "-full")
	if code != 0 {
		t.Fatal("failed-filter query errored")
	}
	var recs []obs.RunRecord
	if err := json.Unmarshal([]byte(out), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != "boom" || recs[0].Seed != 7 ||
		!strings.HasSuffix(recs[0].Metrics, "# EOF\n") {
		t.Fatalf("failure record = %+v", recs)
	}
}

func TestSLOCommand(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	for i := 0; i < 3; i++ {
		if code, _, errOut := exec(t, "record", "-store", store, "-kind", "contention",
			"-label", "cell", "-values", "audit.conformance=1"); code != 0 {
			t.Fatalf("record failed: %s", errOut)
		}
	}
	spec := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(spec, []byte(
		`[{"name":"conf","metric":"audit.conformance","op":">=","goal":1,"target":0.99}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := exec(t, "slo", "-store", store, "-spec", spec, "-strict")
	if code != 0 || !strings.Contains(out, "100.0%") {
		t.Fatalf("met SLO (%d):\n%s", code, out)
	}

	// A failed run burns the budget; -strict turns that into exit 1.
	if code, _, _ := exec(t, "record", "-store", store, "-kind", "contention",
		"-label", "cell", "-err", "boom"); code != 0 {
		t.Fatal("failure record append failed")
	}
	code, _, errOut := exec(t, "slo", "-store", store, "-spec", spec, "-strict")
	if code != 1 || !strings.Contains(errOut, "unmet") {
		t.Fatalf("unmet SLO exit = %d, stderr = %q", code, errOut)
	}
	// Without -strict the evaluation reports but does not gate.
	if code, _, _ = exec(t, "slo", "-store", store, "-spec", spec); code != 0 {
		t.Fatal("non-strict slo gated")
	}
	// JSON output decodes.
	code, out, _ = exec(t, "slo", "-store", store, "-spec", spec, "-json")
	var sts []obs.SLOStatus
	if code != 0 {
		t.Fatal("slo -json errored")
	}
	if err := json.Unmarshal([]byte(out), &sts); err != nil || len(sts) != 1 {
		t.Fatalf("slo -json = %q (%v)", out, err)
	}
}

func TestSentinelCommandAcceptanceShape(t *testing.T) {
	// The CI gate's exact shape: identical bench records pass; a 10x
	// events/sec degradation exits non-zero.
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	good := benchFile(t, dir, 14.7e6)
	for i := 0; i < 2; i++ {
		if code, _, errOut := exec(t, "record", "-store", store, "-bench", good); code != 0 {
			t.Fatalf("record failed: %s", errOut)
		}
	}
	code, out, errOut := exec(t, "sentinel", "-store", store, "-min-history", "1")
	if code != 0 {
		t.Fatalf("identical runs flagged (%d): %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "ok ") {
		t.Fatalf("sentinel reported no judgements:\n%s", out)
	}

	bad := benchFile(t, filepath.Join(dir), 1.47e6)
	if code, _, errOut := exec(t, "record", "-store", store, "-bench", bad); code != 0 {
		t.Fatalf("bad record failed: %s", errOut)
	}
	code, out, errOut = exec(t, "sentinel", "-store", store, "-min-history", "1")
	if code != 1 || !strings.Contains(errOut, "regression") {
		t.Fatalf("10x degradation exit = %d, stderr = %q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "new.events_per_sec") {
		t.Fatalf("sentinel findings:\n%s", out)
	}

	// -only narrows judgement; JSON output decodes.
	if code, _, _ = exec(t, "sentinel", "-store", store, "-min-history", "1",
		"-only", "no_such_metric"); code != 0 {
		t.Fatal("-only filter did not narrow judgement")
	}
	code, out, _ = exec(t, "sentinel", "-store", store, "-min-history", "1", "-json")
	if code != 1 {
		t.Fatal("sentinel -json lost the gate")
	}
	var findings []obs.Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil || len(findings) == 0 {
		t.Fatalf("sentinel -json = %q (%v)", out, err)
	}
}
