package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for frame, want := range map[string]string{
		"repro/internal/noc.(*router).tryOutput":         "noc",
		"repro/internal/noc.(*router).kick (inline)":     "noc",
		"repro/internal/dsu.(*Cluster).Access":           "cache",
		"repro/internal/trace.(*Profile).Next":           "core",
		"repro/internal/admission.Criticality.String":    "rmserver",
		"repro/internal/sweep.defaults[...]":             "sweep",
		"repro/internal/coherence.(*Directory).Lookup":   "core",
		"net/http.(*conn).serve":                         "http",
		"net.(*conn).Write":                              "http",
		"internal/poll.(*FD).Read":                       "http",
		"syscall.Syscall":                                "http",
		"encoding/json.(*Encoder).Encode":                "json",
		"internal/runtime/syscall.Syscall6":              "",
		"runtime.mallocgc":                               "",
		"strconv.ParseFloat":                             "",
		"main.main":                                      "",
		"net/http/pprof.Profile":                         "",
		"repro/internal/wtrace.(*Tracer).record":         "wtrace",
		"repro/internal/telemetry.(*Histogram).Record":   "telemetry",
		"repro/internal/netcalc.(*Cache).DelayBound":     "netcalc",
		"repro/internal/memguard.(*Regulator).replenish": "memguard",
	} {
		if got := layerOf(frame); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", frame, got, want)
		}
	}
}

// TestParseTracesFixture charges each sample of a `go tool pprof
// -traces` dump to the innermost frame that belongs to a layer.
func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"noc":      1200 * ms,
		"mpam":     20 * ms, // an allocation is charged to its caller's layer
		"cache":    10 * ms,
		"http":     30 * ms, // the runtime's syscall frame has no layer
		"json":     10 * ms,
		"rmserver": 10 * ms,
		"gc":       10 * ms, // no layer frame on the stack; the label line is skipped
		"core":     20 * ms,
	}
	if len(got) != len(want) {
		t.Errorf("got layers %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s = %v, want %v", l, got[l], d)
		}
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	_, err := parseTraces(strings.NewReader("-----------+----\n      lots   main.main\n"))
	if err == nil {
		t.Fatal("want an error for a non-duration sample value")
	}
}

// TestClosure checks the closure ratio and that the layer shares of a
// profile add back up to 100%.
func TestClosure(t *testing.T) {
	if got := closure(900*time.Millisecond, 1, time.Second); got != 0.9 {
		t.Errorf("sequential closure = %v, want 0.9", got)
	}
	if got := closure(time.Second, 2, time.Second); got != 0.5 {
		t.Errorf("two-thread closure = %v, want 0.5 (half the threads' time idle)", got)
	}
	if got := closure(time.Second, 1, 0); got != 0 {
		t.Errorf("closure over no wall time = %v, want 0", got)
	}
	v := map[string]float64{}
	self := map[string]time.Duration{"noc": 600 * time.Millisecond, "sim": 300 * time.Millisecond, "gc": 100 * time.Millisecond}
	layerMetrics(self, 4, 1, 1100*time.Millisecond, v)
	var sum float64
	for _, l := range layers {
		sum += v[l+".cpu_pct"]
	}
	if math.Abs(sum-100) > 1e-9 || v["noc.cpu_pct"] != 60 {
		t.Errorf("shares sum to %v with noc %v, want 100 and 60", sum, v["noc.cpu_pct"])
	}
	if v["trace.cpu_ms_per_op"] != 250 {
		t.Errorf("cpu per op = %v ms, want 250", v["trace.cpu_ms_per_op"])
	}
	if got := v["trace.closure"]; math.Abs(got-1/1.1) > 1e-12 {
		t.Errorf("closure = %v, want %v", got, 1/1.1)
	}
}
