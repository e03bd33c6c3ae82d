package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpam"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestRunSpecValidate(t *testing.T) {
	if err := (RunSpec{Hogs: -1, Duration: sim.Millisecond}).Validate(); err == nil {
		t.Error("negative hogs accepted")
	}
	if err := (RunSpec{Hogs: 2}).Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	if _, _, err := BuildPlatform(RunSpec{Hogs: 1}); err == nil {
		t.Error("BuildPlatform accepted invalid spec")
	}
}

func TestBuildPlatformAssemblesSpec(t *testing.T) {
	spec := RunSpec{
		Hogs: 3, DSU: true, MemGuard: true, Shape: true, MPAM: true,
		HogClass: trace.Infotainment, Duration: 100 * sim.Microsecond, Seed: 7,
	}
	p, crit, err := BuildPlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	if crit == nil || crit.Name() != "crit" {
		t.Fatalf("critical app = %v", crit)
	}
	apps := p.Apps()
	if len(apps) != 4 {
		t.Fatalf("apps = %v, want crit + 3 hogs", apps)
	}
	if p.Regulator() == nil {
		t.Fatal("MemGuard regulator missing")
	}
	// Nothing runs until started.
	p.RunFor(10 * sim.Microsecond)
	if st := crit.Stats(); st.Issued != 0 {
		t.Fatalf("idle platform issued %d accesses", st.Issued)
	}
	p.StartApps()
	p.RunFor(90 * sim.Microsecond)
	if st := crit.Stats(); st.Issued == 0 {
		t.Fatal("started platform issued no accesses")
	}
}

// TestHogPARTIDsCappedOnEveryChannel checks the MPAM set-up that
// BuildPlatform does once per PARTID rather than once per hog: on every
// channel arbiter, every hog's PARTID carries the scenario's cap (0.8
// B/ns on the big mesh, 0.15 on the legacy platform) and crit's PARTID
// keeps its guarantee.
func TestHogPARTIDsCappedOnEveryChannel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    RunSpec
		capBps  float64
		schemes int
	}{
		{"bigmesh", BigMeshSpec(0), 0.8, hogSchemes},
		{"legacy", RunSpec{Hogs: 6, MPAM: true, Duration: sim.Millisecond}, 0.15, 6},
		{"legacy-2-hogs", RunSpec{Hogs: 2, MPAM: true, Duration: sim.Millisecond}, 0.15, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, crit, err := BuildPlatform(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			parts := map[mpam.PARTID]bool{}
			for _, a := range p.order {
				if a != crit {
					parts[a.cfg.PARTID] = true
				}
			}
			if len(parts) != tc.schemes {
				t.Fatalf("hogs use %d PARTIDs, want %d", len(parts), tc.schemes)
			}
			for i, ch := range p.chans {
				for id := range parts {
					got, ok := ch.arb.Partition(id)
					if !ok || got.MaxBytesPerNS != tc.capBps || got.MinBytesPerNS != 0 {
						t.Errorf("channel %d PARTID %d: %+v (configured %v), want a %.2f B/ns cap", i, id, got, ok, tc.capBps)
					}
				}
				if got, _ := ch.arb.Partition(crit.cfg.PARTID); got.MinBytesPerNS != 0.8 || got.Priority != 1 {
					t.Errorf("channel %d crit PARTID %d: %+v, want min 0.8 B/ns at priority 1", i, crit.cfg.PARTID, got)
				}
			}
		})
	}
}

func TestRunSpecRunDeterministic(t *testing.T) {
	spec := RunSpec{
		Hogs: 2, MemGuard: true, HogClass: trace.Infotainment,
		Duration: 200 * sim.Microsecond, Seed: 42,
	}
	a, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Crit != b.Crit {
		t.Fatalf("same spec diverged: %+v vs %+v", a.Crit, b.Crit)
	}
	if a.RowHitRate != b.RowHitRate {
		t.Fatalf("row-hit rate diverged: %v vs %v", a.RowHitRate, b.RowHitRate)
	}
	if len(a.HogStats) != 2 {
		t.Fatalf("HogStats = %d entries, want 2", len(a.HogStats))
	}
	if a.Crit.Issued == 0 || a.HogStats[0].Issued == 0 {
		t.Fatal("run produced no traffic")
	}
}

func TestRunSpecSeedChangesHogStream(t *testing.T) {
	base := RunSpec{Hogs: 2, HogClass: trace.Infotainment, Duration: 100 * sim.Microsecond, Seed: 1}
	other := base
	other.Seed = 999
	a, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds should perturb the hogs' random address streams
	// (and hence at least some measured counter).
	if a.Crit == b.Crit && a.RowHitRate == b.RowHitRate && a.HogStats[0] == b.HogStats[0] {
		t.Fatal("seed had no observable effect")
	}
}

func TestRunSpecMetricsSinkAndAuditObserved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.om")
	var sunk [][]byte
	spec := RunSpec{
		Hogs: 1, HogClass: trace.Infotainment,
		Duration: 100 * sim.Microsecond, Seed: 5,
		Audit: true, MetricsPath: path,
		MetricsSink: func(b []byte) { sunk = append(sunk, b) },
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 1 {
		t.Fatalf("sink fired %d times, want exactly once", len(sunk))
	}
	if !strings.HasSuffix(string(sunk[0]), "# EOF\n") {
		t.Fatalf("sink payload is not OpenMetrics:\n%s", sunk[0])
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, sunk[0]) {
		t.Fatal("MetricsPath file and MetricsSink payload diverge")
	}
	if res.AuditObserved == 0 {
		t.Fatal("audited run observed no transactions")
	}
	if res.AuditObserved < res.TotalViolations {
		t.Fatalf("observed %d < violations %d", res.AuditObserved, res.TotalViolations)
	}
}

func TestRunSpecPanicStillDumpsSnapshot(t *testing.T) {
	// Satellite contract: a run that panics mid-collection must still
	// persist whatever telemetry accumulated before unwinding.
	path := filepath.Join(t.TempDir(), "run.om")
	sunk := 0
	testRunFailpoint = func(*Platform) { panic("collection boom") }
	defer func() { testRunFailpoint = nil }()
	spec := RunSpec{
		Hogs: 1, HogClass: trace.Infotainment, Duration: 50 * sim.Microsecond,
		MetricsPath: path,
		MetricsSink: func([]byte) { sunk++ },
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("failpoint did not propagate its panic")
			}
		}()
		spec.Run()
	}()
	if sunk != 1 {
		t.Fatalf("sink fired %d times on the panic path, want once", sunk)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("panic path left no snapshot: %v", err)
	}
	if !strings.HasSuffix(string(data), "# EOF\n") {
		t.Fatalf("panic-path snapshot is not terminated OpenMetrics:\n%s", data)
	}
}
