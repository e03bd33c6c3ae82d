// Package sweep is a deterministic parallel experiment runner for the
// platform model: the harness that turns the paper's Section V
// admission-control story into sensitivity curves. It expands a
// configuration matrix (QoS mechanisms on/off × hog count × workload
// class × simulated horizon × seed list) into independent run specs,
// shards them across a bounded worker pool — each spec in its own
// fresh core.Platform with its own sim.Engine — and aggregates the
// results (per-configuration latency percentiles across seeds,
// slowdown versus the isolated baseline, admission rejection rates)
// into JSON and CSV emitters.
//
// Determinism survives parallelism by construction: every run is
// hermetic (no shared state between platforms), results land in a
// slot indexed by the spec's position in the expanded list, and
// aggregation folds them in that order — so the emitted bytes are
// identical for -workers=1 and -workers=8. A run that panics is
// recovered into a structured failure record instead of killing the
// sweep.
package sweep

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind selects the experiment family a spec runs.
type Kind int

// Experiment kinds.
const (
	// Contention runs the critical-loop-vs-hogs platform experiment
	// (socsim's scenario).
	Contention Kind = iota
	// Admission runs the Section V admission-control overlay
	// (admissionsim's live run) and reports protocol outcomes.
	Admission
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Contention:
		return "contention"
	case Admission:
		return "admission"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MechanismSet selects which of the paper's QoS mechanisms are armed.
type MechanismSet struct {
	DSU, MemGuard, Shape, MPAM bool
}

// AllMechanisms arms everything.
func AllMechanisms() MechanismSet {
	return MechanismSet{DSU: true, MemGuard: true, Shape: true, MPAM: true}
}

// String renders the set as "none" or a "+"-joined list, e.g.
// "dsu+memguard".
func (m MechanismSet) String() string {
	var parts []string
	if m.DSU {
		parts = append(parts, "dsu")
	}
	if m.MemGuard {
		parts = append(parts, "memguard")
	}
	if m.Shape {
		parts = append(parts, "shape")
	}
	if m.MPAM {
		parts = append(parts, "mpam")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseMechanismSet parses String's format; "all" arms everything.
func ParseMechanismSet(s string) (MechanismSet, error) {
	var m MechanismSet
	switch s {
	case "", "none":
		return m, nil
	case "all":
		return AllMechanisms(), nil
	}
	for _, part := range strings.Split(s, "+") {
		switch part {
		case "dsu":
			m.DSU = true
		case "memguard", "mg":
			m.MemGuard = true
		case "shape", "shaping":
			m.Shape = true
		case "mpam":
			m.MPAM = true
		default:
			return m, fmt.Errorf("sweep: unknown mechanism %q (want dsu, memguard, shape, mpam, none, all)", part)
		}
	}
	return m, nil
}

// apply copies the set onto a platform run spec.
func (m MechanismSet) apply(rs *core.RunSpec) {
	rs.DSU, rs.MemGuard, rs.Shape, rs.MPAM = m.DSU, m.MemGuard, m.Shape, m.MPAM
}

// of extracts the set from a platform run spec.
func mechanismsOf(rs core.RunSpec) MechanismSet {
	return MechanismSet{DSU: rs.DSU, MemGuard: rs.MemGuard, Shape: rs.Shape, MPAM: rs.MPAM}
}

// Spec is one independent experiment run. Runs differing only in
// their seed share a Label and aggregate together.
type Spec struct {
	// Label identifies the configuration in aggregates and emitters.
	Label string
	Kind  Kind
	// Platform describes a Contention run.
	Platform core.RunSpec
	// Admission describes an Admission run.
	Admission AdmissionSpec
}

// Matrix is the configuration space a sweep explores. Empty axes get
// a single default value, so the zero Matrix expands to one spec.
type Matrix struct {
	// Mechanisms lists the QoS combinations to evaluate (default:
	// none).
	Mechanisms []MechanismSet
	// Hogs lists aggressor counts (default: 6). A 0 entry produces
	// the isolated baseline, emitted once per workload × duration
	// with mechanisms off — the denominator for slowdown.
	Hogs []int
	// Workloads lists hog workload classes (default: Infotainment).
	Workloads []trace.WorkloadClass
	// Durations lists simulated horizons (default: 4ms).
	Durations []sim.Duration
	// Seeds lists the per-configuration seeds (default: 100). Each
	// configuration runs once per seed.
	Seeds []uint64
	// AdmissionApps adds admission-overlay runs with the given app
	// counts (no runs when empty); AdmissionCrit of them are
	// critical.
	AdmissionApps []int
	AdmissionCrit int
}

func defaults[T any](xs []T, def T) []T {
	if len(xs) == 0 {
		return []T{def}
	}
	return xs
}

// Expand enumerates the matrix into run specs in a fixed, documented
// order: workload → duration → (isolated baseline, if 0 ∈ Hogs) →
// mechanism set → hog count → seed, then the admission runs. The
// order is part of the format: aggregation and emission preserve it.
func (mx Matrix) Expand() []Spec {
	mechs := defaults(mx.Mechanisms, MechanismSet{})
	hogs := defaults(mx.Hogs, 6)
	workloads := defaults(mx.Workloads, trace.Infotainment)
	durations := defaults(mx.Durations, 4*sim.Millisecond)
	seeds := defaults(mx.Seeds, 100)

	var specs []Spec
	addPlatform := func(label string, w trace.WorkloadClass, d sim.Duration, m MechanismSet, n int) {
		for _, seed := range seeds {
			rs := core.RunSpec{Hogs: n, HogClass: w, Duration: d, Seed: seed}
			m.apply(&rs)
			specs = append(specs, Spec{Label: label, Kind: Contention, Platform: rs})
		}
	}
	for _, w := range workloads {
		for _, d := range durations {
			hasBaseline := false
			for _, n := range hogs {
				if n == 0 {
					hasBaseline = true
				}
			}
			if hasBaseline {
				addPlatform(platformLabel(MechanismSet{}, 0, w, d), w, d, MechanismSet{}, 0)
			}
			for _, m := range mechs {
				for _, n := range hogs {
					if n == 0 {
						continue // baseline emitted once above
					}
					addPlatform(platformLabel(m, n, w, d), w, d, m, n)
				}
			}
		}
	}
	for _, apps := range mx.AdmissionApps {
		as := DefaultAdmissionSpec()
		as.Apps = apps
		as.CritApps = mx.AdmissionCrit
		specs = append(specs, Spec{
			Label:     fmt.Sprintf("admission/apps=%d/crit=%d", apps, mx.AdmissionCrit),
			Kind:      Admission,
			Admission: as,
		})
	}
	return specs
}

// platformLabel names a contention configuration.
func platformLabel(m MechanismSet, hogs int, w trace.WorkloadClass, d sim.Duration) string {
	return fmt.Sprintf("%s/hogs=%d/%s/%s", m, hogs, w, fmtDur(d))
}

// fmtDur renders a horizon compactly (4ms, 200us, 50ns) for labels.
func fmtDur(d sim.Duration) string {
	ns := d.Nanoseconds()
	switch {
	case ns >= 1e6 && ns == float64(int64(ns/1e6))*1e6:
		return fmt.Sprintf("%gms", ns/1e6)
	case ns >= 1e3 && ns == float64(int64(ns/1e3))*1e3:
		return fmt.Sprintf("%gus", ns/1e3)
	default:
		return fmt.Sprintf("%gns", ns)
	}
}

// ScenarioMatrix is the X1 scenario list as sweep specs, labelled
// for reading: the isolated baseline, unprotected contention, each
// mechanism alone, and all mechanisms together — hogs aggressors of
// class Infotainment over horizon d, one run per seed per scenario.
// The sweep CLI reaches the same runs with
// `-mechs none,dsu,memguard,shape,mpam,all -hogs 0,<hogs>`; the
// sweep-scaling benchmark and this package's tests use the list
// directly.
func ScenarioMatrix(hogs int, d sim.Duration, seeds []uint64) []Spec {
	seeds = defaults(seeds, 100)
	var specs []Spec
	for _, sc := range []struct {
		name  string
		mechs MechanismSet
		hogs  int
	}{
		{"solo (0 hogs)", MechanismSet{}, 0},
		{"contended", MechanismSet{}, hogs},
		{"contended + DSU", MechanismSet{DSU: true}, hogs},
		{"contended + MemGuard", MechanismSet{MemGuard: true}, hogs},
		{"contended + shaping", MechanismSet{Shape: true}, hogs},
		{"contended + MPAM channel", MechanismSet{MPAM: true}, hogs},
		{"contended + all mechanisms", AllMechanisms(), hogs},
	} {
		for _, seed := range seeds {
			rs := core.RunSpec{Hogs: sc.hogs, HogClass: trace.Infotainment, Duration: d, Seed: seed}
			sc.mechs.apply(&rs)
			specs = append(specs, Spec{Label: sc.name, Kind: Contention, Platform: rs})
		}
	}
	return specs
}
