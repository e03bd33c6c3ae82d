package netcalc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netcalc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestAuditOperandsBitIdentical checks the closed-form convolution on
// the operands the runtime auditor really composes: every convolution
// the legacy, legacy-contended, legacy-protected, legacy-vision and
// big-mesh platforms memoize while arming the auditor (mesh (*) mesh,
// then the mesh pair (*) the scaled WCD DRAM curve). Each pair must be
// convex, so that Convolve takes the closed form, and the stored result
// must equal the general envelope construction bit for bit, which is
// what keeps every registered bound and cache count unchanged.
func TestAuditOperandsBitIdentical(t *testing.T) {
	legacy := core.RunSpec{Hogs: 6, HogClass: trace.Infotainment, Duration: sim.Millisecond, Seed: 1}
	protected := legacy
	protected.DSU, protected.MemGuard, protected.MPAM = true, true, true
	budgeted := legacy
	budgeted.MemGuard = true
	vision := core.RunSpec{Hogs: 2, HogClass: trace.VisionPipeline, MemGuard: true, Duration: sim.Millisecond}
	for _, tc := range []struct {
		name string
		spec core.RunSpec
	}{
		{"legacy", budgeted},
		{"legacy-contended", legacy},
		{"legacy-protected", protected},
		{"legacy-vision", vision},
		{"bigmesh", core.BigMeshSpec(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Audit = true
			p, _, err := core.BuildPlatform(spec)
			if err != nil {
				t.Fatal(err)
			}
			pairs := p.NetcalcCache().Convolutions()
			if len(pairs) == 0 {
				t.Fatal("the auditor memoized no convolution")
			}
			for _, pr := range pairs {
				f, g, stored := pr[0], pr[1], pr[2]
				if !netcalc.IsConvex(f) || !netcalc.IsConvex(g) {
					t.Errorf("operands %v and %v are not both convex: the closed form is not exercised", f, g)
					continue
				}
				want := netcalc.ConvolveEnvelope(f, g)
				if got := netcalc.Convolve(f, g); !netcalc.Identical(got, want) || !netcalc.Identical(stored, want) {
					t.Errorf("%v (*) %v:\n  closed form %v\n  envelope    %v", f, g, got, want)
				}
			}
			t.Logf("%d convolutions, all convex and bit-identical", len(pairs))
		})
	}
}
