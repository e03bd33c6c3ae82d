package sweep

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/noc"
	"repro/internal/sim"
)

// AdmissionSpec describes one admission-overlay run: Apps
// applications activate one by one on a fresh mesh (CritApps of them
// critical, activated first) under the non-symmetric policy, each
// submitting PacketsPerApp packets on activation. Best-effort apps
// declare a traffic contract (BurstBytes, DeadlineNS) that the RM
// checks online with the paper's Section IV-A delay-bound test, so
// once the shrinking per-app rate can no longer meet the deadline,
// further activations are rejected — the rejection rate the sweep
// aggregates.
type AdmissionSpec struct {
	Apps               int
	CritApps           int
	TotalBytesPerNS    float64
	CriticalBytesPerNS float64
	FloorBytesPerNS    float64
	ActivationGap      sim.Duration
	PacketsPerApp      int
	// Traffic contract for best-effort apps (criticals ride their
	// guaranteed share and are admitted unconditionally).
	BurstBytes       float64
	DeadlineNS       float64
	ServiceLatencyNS float64
}

// DefaultAdmissionSpec mirrors admissionsim's policy defaults plus a
// contract that starts rejecting around the sixth best-effort app.
func DefaultAdmissionSpec() AdmissionSpec {
	return AdmissionSpec{
		Apps:               8,
		TotalBytesPerNS:    1.6,
		CriticalBytesPerNS: 0.4,
		FloorBytesPerNS:    0.01,
		ActivationGap:      200 * sim.Microsecond,
		PacketsPerApp:      50,
		BurstBytes:         512,
		DeadlineNS:         2500,
		ServiceLatencyNS:   100,
	}
}

// runAdmission executes an admission-overlay run on its own engine.
func runAdmission(as AdmissionSpec) (Result, error) {
	if as.Apps < 0 || as.CritApps < 0 || as.CritApps > as.Apps {
		return Result{}, fmt.Errorf("sweep: admission spec wants 0 <= crit (%d) <= apps (%d)", as.CritApps, as.Apps)
	}
	if as.ActivationGap <= 0 {
		as.ActivationGap = 200 * sim.Microsecond
	}
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		return Result{}, err
	}
	sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, admission.NonSymmetric{
		TotalBytesPerNS:    as.TotalBytesPerNS,
		CriticalBytesPerNS: as.CriticalBytesPerNS,
		FloorBytesPerNS:    as.FloorBytesPerNS,
	})
	if err != nil {
		return Result{}, err
	}
	if as.BurstBytes > 0 && as.DeadlineNS > 0 {
		reqs := make(map[string]admission.Requirement, as.Apps)
		for i := as.CritApps; i < as.Apps; i++ {
			reqs[appName(i)] = admission.Requirement{BurstBytes: as.BurstBytes, DeadlineNS: as.DeadlineNS}
		}
		sys.SetAdmissionCheck(reqs, as.ServiceLatencyNS)
	}
	for i := 0; i < as.Apps; i++ {
		node := noc.Coord{X: i % 4, Y: (i / 4) % 4}
		cl, err := sys.Client(node)
		if err != nil {
			return Result{}, err
		}
		crit := admission.BestEffort
		if i < as.CritApps {
			crit = admission.Critical
		}
		name := appName(i)
		if err := cl.Register(name, crit); err != nil {
			return Result{}, err
		}
		at := sim.Duration(i) * as.ActivationGap
		eng.At(at, func() {
			for k := 0; k < as.PacketsPerApp; k++ {
				_ = cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
			}
		})
	}
	eng.RunUntil(sim.Duration(as.Apps+2) * as.ActivationGap)
	st := sys.Stats()
	return Result{
		Admitted:    st.Admitted,
		Rejected:    st.Rejected,
		ModeChanges: st.ModeChanges,
	}, nil
}

func appName(i int) string { return fmt.Sprintf("app%d", i) }
