package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sim"
)

var (
	rmdOnce sync.Once
	rmdDir  string
	rmdErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if rmdDir != "" {
		os.RemoveAll(rmdDir)
	}
	os.Exit(code)
}

// buildRMD builds cmd/rmd once for the service workloads.
func buildRMD(t *testing.T) string {
	t.Helper()
	rmdOnce.Do(func() {
		if rmdDir, rmdErr = os.MkdirTemp("", "bench-rmd-"); rmdErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(rmdDir, "rmd"), "repro/cmd/rmd").CombinedOutput()
		if err != nil {
			rmdErr = fmt.Errorf("%v: %s", err, out)
		}
	})
	if rmdErr != nil {
		t.Fatalf("build rmd: %v", rmdErr)
	}
	return filepath.Join(rmdDir, "rmd")
}

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

// TestSmoke runs every workload briefly (shortened simulated spans and
// a 1 s service run) and requires every output check to pass and every
// end-to-end metric, throughput and latency to read above zero.
func TestSmoke(t *testing.T) {
	spans := map[string]sim.Duration{
		"legacy-contended": sim.Millisecond,
		"legacy-protected": sim.Millisecond,
		"bigmesh":          20 * sim.Microsecond,
		"bigmesh-p2":       20 * sim.Microsecond,
		"sweep-matrix":     sim.Millisecond,
	}
	for _, w := range workloads {
		t.Run(w.name(), func(t *testing.T) {
			p := params{seed: 2, seconds: 1, span: spans[w.name()], tmp: t.TempDir()}
			if _, sim := spans[w.name()]; !sim {
				p.rmd = buildRMD(t)
			}
			out, err := w.run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("%d ops, %d failed", out.attempted, out.failed)
			}
			for _, d := range append(endToEnd, metricDef{"throughput", "1/s"}, metricDef{"latency_ms", "ms"}) {
				if v := out.values[d.name]; !(v > 0) {
					t.Errorf("%s = %v", d.name, v)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced repetition of one sim and one
// service workload: the CPU profile must be attributed to layers and
// the span breakdown must be filled in.
func TestSmokeTraced(t *testing.T) {
	for _, c := range []struct {
		name string
		span sim.Duration
		keys []string
	}{
		{"legacy-protected", sim.Millisecond, []string{"mpam.cpu_pct", "trace.closure", "trace.overhead", "sim.events_per_s"}},
		{"rmd-small", 0, []string{"http.cpu_pct", "http.transport_pct", "trace.overhead", "rmserver.decision_rate"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := params{seed: 3, seconds: 1, span: c.span, trace: true, tmp: t.TempDir()}
			if c.span == 0 {
				p.rmd = buildRMD(t)
			}
			out, err := workloadNamed(t, c.name).run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("%d of %d ops failed", out.failed, out.attempted)
			}
			for _, k := range c.keys {
				if v := out.values[k]; !(v > 0) {
					t.Errorf("%s = %v", k, v)
				}
			}
		})
	}
}

// TestFingerprintsCommitted checks that every sim and sweep workload
// has a committed fingerprint to check its default-seed runs against.
func TestFingerprintsCommitted(t *testing.T) {
	for _, name := range []string{"legacy-contended", "legacy-protected", "bigmesh", "bigmesh-p2", "sweep-matrix"} {
		fp, err := committedFingerprint(name, committedSeed, true)
		if err != nil {
			t.Fatal(err)
		}
		if *fp == (fingerprint{}) {
			t.Errorf("no committed fingerprint for %s", name)
		}
	}
}
