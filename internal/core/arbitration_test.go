package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// legacySpec is the legacy platform the repository benchmark runs:
// six Infotainment hogs, with DSU, MemGuard and MPAM when protected.
func legacySpec(protected bool, span sim.Duration) RunSpec {
	return RunSpec{
		Hogs: 6, HogClass: trace.Infotainment, Duration: span, Seed: 1, Telemetry: true,
		DSU: protected, MemGuard: protected, MPAM: protected,
	}
}

// armed builds spec with the auditor on, as socsim -audit and the
// benchmark do.
func armed(t *testing.T, spec RunSpec) *Platform {
	t.Helper()
	p, _, err := BuildPlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableAudit(AuditOptions{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLegacyProtectedRunAllocBudget bounds what a 10 ms
// legacy-protected run allocates once built: StartApps and RunFor. The
// MPAM dispatcher and the NoC arbiter run allocation-free, so what is
// left is the apps' and auditor's own growth, about 0.3 MB in 400
// objects. A dispatcher that rebuilds and sorts its PARTIDs or closes
// over each transfer allocates about 19 MB in 870k objects here.
func TestLegacyProtectedRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures do not hold under the race detector (see race_test.go)")
	}
	const maxBytes, maxObjects = 512 << 10, 4_000
	spec := legacySpec(true, 10*sim.Millisecond)
	p := armed(t, spec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.StartApps()
	p.RunFor(spec.Duration)
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("legacy-protected run: %d B in %d objects, %d GCs", bytes, objects, after.NumGC-before.NumGC)
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("legacy-protected run allocated %d B in %d objects, want <= %d B and <= %d objects",
			bytes, objects, maxBytes, maxObjects)
	}
}

// TestArbitrationProbesPerGrant checks that the routers' round-robin
// arbiters examine at most one input queue per flit they forward: the
// ready masks name the granted input outright, so only a pick the
// credit check refuses costs a probe without a hop. A linear scan of
// the five inputs on every arbitration attempt examines about 60 per
// hop on these runs.
func TestArbitrationProbesPerGrant(t *testing.T) {
	bigmesh := BigMeshSpec(0)
	for _, tc := range []struct {
		name string
		spec RunSpec
	}{
		{"legacy-contended", legacySpec(false, sim.Millisecond)},
		{"bigmesh", bigmesh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := armed(t, tc.spec)
			p.StartApps()
			p.RunFor(tc.spec.Duration)
			probes, grants := p.Mesh().Probes(), p.Mesh().FlitHops()
			t.Logf("%d probes for %d flit hops (%.3f per grant)", probes, grants, float64(probes)/float64(grants))
			if grants == 0 || probes == 0 || probes > grants {
				t.Errorf("%d probes for %d flit hops, want 0 < probes <= hops", probes, grants)
			}
		})
	}
}
