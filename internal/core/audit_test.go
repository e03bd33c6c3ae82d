package core

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestAuditHogPushesCritPastBound is the issue's acceptance scenario,
// self-calibrated: the critical app's bound is set to its measured
// solo worst case, so the isolated baseline fires no violation while
// the contended run must blow past it — and every violation's
// attribution stages must sum exactly to its observed latency.
func TestAuditHogPushesCritPastBound(t *testing.T) {
	solo := RunSpec{Hogs: 0, Duration: 2 * sim.Millisecond, HogClass: trace.Infotainment}
	soloRes, err := solo.Run()
	if err != nil {
		t.Fatal(err)
	}
	boundNS := soloRes.Crit.MaxReadLatency.Nanoseconds()
	if boundNS <= 0 {
		t.Fatalf("solo max latency = %v", boundNS)
	}
	bounds := map[string]float64{"crit": boundNS, "hog0": 0, "hog1": 0, "hog2": 0}

	// Isolated baseline under the same bound: no violations.
	solo.Audit = true
	solo.AuditBounds = bounds
	soloAudited, err := solo.Run()
	if err != nil {
		t.Fatal(err)
	}
	if soloAudited.TotalViolations != 0 {
		t.Fatalf("solo run violated its own max: %d violations", soloAudited.TotalViolations)
	}

	// Contended, no mechanism armed: the hogs push crit past the
	// bound. Built directly so OnViolation can be hooked.
	dur := 2 * sim.Millisecond
	p2, crit2, err := BuildPlatform(RunSpec{
		Hogs: 3, Duration: dur, HogClass: trace.Infotainment,
	})
	if err != nil {
		t.Fatal(err)
	}
	var violations []audit.Violation
	if _, err := p2.EnableAudit(AuditOptions{
		Bounds:      bounds,
		OnViolation: func(v audit.Violation) { violations = append(violations, v) },
	}); err != nil {
		t.Fatal(err)
	}
	p2.StartApps()
	p2.RunFor(dur)

	if len(violations) == 0 {
		t.Fatal("contended run produced no bound violations")
	}
	var worst float64
	for _, v := range violations {
		if v.App != "crit" {
			t.Fatalf("violation from %s; only crit is bounded", v.App)
		}
		// Attribution must partition the observation exactly: the
		// stage sum in integer picoseconds equals the observed latency.
		if got := v.Breakdown.Total().Nanoseconds(); got != v.ObservedNS {
			t.Fatalf("stages sum to %vns, observed %vns", got, v.ObservedNS)
		}
		if v.HeadroomNS >= 0 {
			t.Fatalf("violation with non-negative headroom: %+v", v)
		}
		if v.ObservedNS > worst {
			worst = v.ObservedNS
		}
	}
	// The worst violating observation is the app's own measured max —
	// the stamps the breakdown is cut at agree with the independent
	// end-to-end measurement in App.finish.
	if critMax := crit2.Stats().MaxReadLatency.Nanoseconds(); worst != critMax {
		t.Fatalf("worst violation %vns != crit max latency %vns", worst, critMax)
	}
	if n := p2.Auditor().TotalViolations(); n != uint64(len(violations)) {
		t.Fatalf("auditor counted %d, callback saw %d", n, len(violations))
	}
}

// TestAuditAnalyticBoundFinite checks the platform derives a usable
// NC bound for the closed-loop critical app without overrides.
func TestAuditAnalyticBoundFinite(t *testing.T) {
	p, _, err := BuildPlatform(RunSpec{Hogs: 2, Duration: sim.Millisecond, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	b := p.Auditor().App("crit").Bound()
	if b.DelayBoundNS <= 0 || math.IsInf(b.DelayBoundNS, 1) {
		t.Fatalf("crit analytic bound = %v, want finite positive", b.DelayBoundNS)
	}
}

// TestAuditBudgetCapture checks the MemGuard budget rides along in
// the captured contract.
func TestAuditBudgetCapture(t *testing.T) {
	p, _, err := BuildPlatform(RunSpec{Hogs: 1, Duration: sim.Millisecond, MemGuard: true, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if b := p.Auditor().App("hog0").Bound(); b.BudgetBytesPerPeriod != 16<<10 {
		t.Fatalf("hog0 budget = %d, want %d", b.BudgetBytesPerPeriod, 16<<10)
	}
	if b := p.Auditor().App("crit").Bound(); b.BudgetBytesPerPeriod != 0 {
		t.Fatalf("crit budget = %d, want 0 (unregulated)", b.BudgetBytesPerPeriod)
	}
}

// TestAuditHitAttribution checks L3 hits decompose entirely into the
// hit stage.
func TestAuditHitAttribution(t *testing.T) {
	p, crit, err := BuildPlatform(RunSpec{Hogs: 0, Duration: sim.Millisecond, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	p.StartApps()
	p.RunFor(sim.Millisecond)
	st := crit.Stats()
	if st.L3Hits == 0 {
		t.Skip("profile produced no hits")
	}
	snap := p.Auditor().App("crit").Snapshot()
	hs := snap.Stages[audit.StageL3Hit]
	if hs.TotalPS == 0 {
		t.Fatal("no L3-hit attribution recorded")
	}
	if hs.MaxPS != sim.NS(20) { // DefaultConfig L3HitLatency
		t.Fatalf("hit stage max = %v, want 20ns", hs.MaxPS)
	}
	if snap.Observed == 0 {
		t.Fatal("auditor observed no transactions")
	}
}

// TestAuditRunSpecViolationCounts checks RunSpec.Run surfaces the
// auditor's counters.
func TestAuditRunSpecViolationCounts(t *testing.T) {
	spec := RunSpec{
		Hogs: 2, Duration: sim.Millisecond, HogClass: trace.Infotainment,
		Audit:       true,
		AuditBounds: map[string]float64{"crit": 1, "hog0": 0, "hog1": 0}, // 1ns: everything violates
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CritViolations == 0 || res.TotalViolations != res.CritViolations {
		t.Fatalf("violations = %d/%d, want crit-only nonzero", res.CritViolations, res.TotalViolations)
	}
}

// TestAuditObservesReadsAndWriteHits pins where an app's read-latency
// histogram and its auditor's latency histogram part ways. App.finish
// records reads only; the auditor observes every read and also every
// write that hits in the cache (txn.hit), while posted write misses
// reach neither. So observed >= reads for every app, with equality,
// and equal histograms, for an app that never writes. The read-only
// case uses VisionPipeline hogs (WriteEvery 0); the socsim default,
// Infotainment, writes every third access.
func TestAuditObservesReadsAndWriteHits(t *testing.T) {
	for _, mode := range []struct {
		name string
		spec RunSpec
	}{
		{"base", RunSpec{}},
		{"dsu", RunSpec{DSU: true}},
		{"memguard", RunSpec{MemGuard: true}},
		{"mpam", RunSpec{MPAM: true}},
	} {
		for _, class := range []trace.WorkloadClass{trace.Infotainment, trace.VisionPipeline} {
			spec := mode.spec
			spec.Hogs, spec.HogClass, spec.Seed, spec.Duration = 6, class, 100, sim.Millisecond
			p, _, err := BuildPlatform(spec)
			if err != nil {
				t.Fatal(err)
			}
			aud, err := p.EnableAudit(AuditOptions{})
			if err != nil {
				t.Fatal(err)
			}
			p.StartApps()
			p.RunFor(spec.Duration)

			readOnly := 0
			for _, name := range p.Apps() {
				app, err := p.App(name)
				if err != nil {
					t.Fatal(err)
				}
				st := app.Stats()
				aa := aud.App(name)
				observed := aa.Snapshot().Observed
				if observed < st.Reads || observed > st.Reads+st.Writes {
					t.Errorf("%s/%s %s: auditor observed %d, app read %d and wrote %d; want reads <= observed <= reads+writes",
						mode.name, class, name, observed, st.Reads, st.Writes)
				}
				if name == "crit" && observed == st.Reads {
					// crit's 32 KiB loop writes every fourth access and
					// mostly hits, so the two counts must part.
					t.Errorf("%s/%s crit: auditor observed %d = reads; its write hits went unobserved",
						mode.name, class, observed)
				}
				if app.Config().Profile.WriteEvery != 0 {
					continue
				}
				readOnly++
				if observed != st.Reads {
					t.Errorf("%s/%s %s never writes, yet the auditor observed %d against %d reads",
						mode.name, class, name, observed, st.Reads)
				}
				if got, want := aa.LatencyHistogram().Summarize(), app.ReadLatencyHistogram().Summarize(); got != want {
					t.Errorf("%s/%s %s never writes, yet its histograms differ: auditor %+v, app %+v",
						mode.name, class, name, got, want)
				}
			}
			if class == trace.VisionPipeline && readOnly != spec.Hogs {
				t.Errorf("%s/%s: %d read-only apps, want the %d hogs", mode.name, class, readOnly, spec.Hogs)
			}
		}
	}
}
