package obs

import (
	"math"
	"strings"
	"testing"
)

// contRec builds a healthy contention record with one metric.
func contRec(label string, metric string, v float64) RunRecord {
	return RunRecord{Kind: KindContention, Label: label, Values: map[string]float64{metric: v}}
}

func TestSLOEvaluateAttainmentAndBurnRate(t *testing.T) {
	// 10 runs, 9 conformant: attainment 0.9.
	var recs []RunRecord
	for i := 0; i < 10; i++ {
		v := 1.0
		if i == 3 {
			v = 0.98
		}
		recs = append(recs, contRec("a", "audit.conformance", v))
	}
	slo := SLO{Name: "conf", Metric: "audit.conformance", Op: ">=", Goal: 1.0, Target: 0.8}
	sts, err := Evaluate(recs, []SLO{slo})
	if err != nil {
		t.Fatal(err)
	}
	st := sts[0]
	if st.Runs != 10 || st.Good != 9 || st.Attainment != 0.9 {
		t.Fatalf("status = %+v", st)
	}
	if !st.Met {
		t.Fatal("attainment 0.9 must meet target 0.8")
	}
	// burn = (1-0.9)/(1-0.8) = 0.5.
	if st.BurnRate != 0.5 {
		t.Fatalf("burn rate = %v, want 0.5", st.BurnRate)
	}

	// Tighten the target: unmet, burning 2x budget (to float rounding).
	slo.Target = 0.95
	sts, _ = Evaluate(recs, []SLO{slo})
	if sts[0].Met || math.Abs(sts[0].BurnRate-2) > 1e-9 {
		t.Fatalf("tight status = %+v", sts[0])
	}
}

func TestSLOPerfectConformanceReportsOneHundredPercent(t *testing.T) {
	// The acceptance shape: audited runs with zero violations must
	// evaluate to 100% bound-conformance and zero burn.
	recs := []RunRecord{
		contRec("a", "audit.conformance", 1),
		contRec("a", "audit.conformance", 1),
	}
	sts, err := Evaluate(recs, DefaultSLOs())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, st := range sts {
		if st.SLO.Name != "bound-conformance" {
			continue
		}
		found = true
		if st.Attainment != 1 || st.BurnRate != 0 || !st.Met || st.Runs != 2 {
			t.Fatalf("conformance status = %+v", st)
		}
	}
	if !found {
		t.Fatal("DefaultSLOs lost the bound-conformance objective")
	}
}

func TestSLOWindowAndFilters(t *testing.T) {
	// 5 old bad runs, then 5 new good ones; window 5 sees only the
	// good tail.
	var recs []RunRecord
	for i := 0; i < 5; i++ {
		recs = append(recs, contRec("a", "audit.conformance", 0))
	}
	for i := 0; i < 5; i++ {
		recs = append(recs, contRec("a", "audit.conformance", 1))
	}
	slo := SLO{Name: "conf", Metric: "audit.conformance", Op: ">=", Goal: 1, Target: 1, Window: 5}
	sts, _ := Evaluate(recs, []SLO{slo})
	if sts[0].Runs != 5 || sts[0].Attainment != 1 || !sts[0].Met {
		t.Fatalf("windowed status = %+v", sts[0])
	}

	// Kind/label filters exclude foreign records; records without the
	// metric are not counted.
	recs = append(recs, RunRecord{Kind: KindBench, Label: "kernel", Values: map[string]float64{"x": 1}})
	recs = append(recs, contRec("b", "other_metric", 1))
	slo.Kind, slo.Label = KindContention, "a"
	sts, _ = Evaluate(recs, []SLO{slo})
	if sts[0].Runs != 5 {
		t.Fatalf("filtered runs = %d, want 5", sts[0].Runs)
	}
}

func TestSLOFailedRunsBurnBudget(t *testing.T) {
	recs := []RunRecord{
		contRec("a", "audit.conformance", 1),
		{Kind: KindContention, Label: "a", Err: "panic: boom"},
	}
	slo := SLO{Name: "conf", Metric: "audit.conformance", Op: ">=", Goal: 1, Target: 1}
	sts, _ := Evaluate(recs, []SLO{slo})
	if sts[0].Runs != 2 || sts[0].Good != 1 || sts[0].Met {
		t.Fatalf("failure accounting = %+v", sts[0])
	}
	if sts[0].BurnRate != MaxBurnRate {
		t.Fatalf("zero-budget burn = %v, want cap %v", sts[0].BurnRate, MaxBurnRate)
	}
}

func TestSLOValidateRejectsBadSpecs(t *testing.T) {
	bad := []SLO{
		{Name: "", Metric: "m", Op: ">=", Goal: 1, Target: 1},
		{Name: "x", Metric: "m", Op: "==", Goal: 1, Target: 1},
		{Name: "x", Metric: "m", Op: ">=", Goal: 1, Target: 0},
		{Name: "x", Metric: "m", Op: ">=", Goal: 1, Target: 1.5},
		{Name: "x", Metric: "m", Op: ">=", Goal: 1, Target: 1, Window: -1},
	}
	for i, s := range bad {
		if _, err := Evaluate(nil, []SLO{s}); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
}

func TestLoadSLOs(t *testing.T) {
	src := `[{"name":"conf","metric":"audit.conformance","op":">=","goal":1,"target":0.99,"window":10}]`
	slos, err := LoadSLOs(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 1 || slos[0].Name != "conf" || slos[0].Window != 10 {
		t.Fatalf("loaded = %+v", slos)
	}
	if _, err := LoadSLOs(strings.NewReader(`[{"name":"x"}]`)); err == nil {
		t.Fatal("invalid spec loaded")
	}
	if _, err := LoadSLOs(strings.NewReader(`[{"nmae":"typo"}]`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
