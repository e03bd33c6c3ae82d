package wcd

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/netcalc"
	"repro/internal/sim"
)

func TestParamsValidation(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := p
	bad.NWd = 0
	if bad.Validate() == nil {
		t.Error("NWd=0 accepted")
	}
	bad = p
	bad.WriteRate = -1
	if bad.Validate() == nil {
		t.Error("negative rate accepted")
	}
	bad = p
	bad.NCap = -1
	if bad.Validate() == nil {
		t.Error("negative NCap accepted")
	}
	if _, err := Compute(p, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestGbpsConversion(t *testing.T) {
	// 4 Gbps = 0.5 B/ns = 1 request per 128 ns at 64B lines.
	if got := GbpsToReqPerNS(4, 64); math.Abs(got-1.0/128) > 1e-12 {
		t.Errorf("GbpsToReqPerNS(4,64) = %v, want 1/128", got)
	}
	if got := GbpsToReqPerNS(4, 0); math.Abs(got-1.0/128) > 1e-12 {
		t.Errorf("zero line size should default to 64B, got %v", got)
	}
}

func TestCostModelDerivation(t *testing.T) {
	cm := DefaultParams().Costs()
	if cm.ReadMiss != 46.25 {
		t.Errorf("ReadMiss = %v, want 46.25", cm.ReadMiss)
	}
	if cm.WritePerReq != 61.25 {
		t.Errorf("WritePerReq = %v, want 61.25", cm.WritePerReq)
	}
	if cm.BatchOverhead != 15 {
		t.Errorf("BatchOverhead = %v, want 15", cm.BatchOverhead)
	}
	if cm.RefreshCost != 260 || cm.RefreshPeriod != 7800 {
		t.Errorf("refresh = %v/%v", cm.RefreshCost, cm.RefreshPeriod)
	}
}

func TestNoWriteTrafficBound(t *testing.T) {
	// With no writes at all, the bound is just misses + hits + the
	// refreshes that fit.
	p := DefaultParams()
	p.WriteBurst = 0
	res, err := Compute(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm := p.Costs()
	wantUpper := cm.ReadMiss + hitBlockCost(cm, 16) + cm.RefreshCost
	if math.Abs(res.Upper-wantUpper) > 1e-9 {
		t.Errorf("Upper = %v, want %v", res.Upper, wantUpper)
	}
	wantLower := cm.ReadMiss + 16*cm.HitBurst + cm.RefreshCost
	if math.Abs(res.Lower-wantLower) > 1e-9 {
		t.Errorf("Lower = %v, want %v", res.Lower, wantLower)
	}
	if res.Exact {
		t.Error("bounds with different hit handling should not be exact")
	}
}

func TestBoundsOrderAndMonotonicity(t *testing.T) {
	// Lower <= Upper everywhere; both non-decreasing in write rate and
	// in queue position.
	p := DefaultParams()
	prevU, prevL := 0.0, 0.0
	for _, g := range []float64{0, 1, 2, 3, 4, 5, 6, 7} {
		res, err := Compute(p.WithWriteRateGbps(g), 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lower > res.Upper+1e-9 {
			t.Errorf("at %vGbps lower %v > upper %v", g, res.Lower, res.Upper)
		}
		if res.Upper < prevU || res.Lower < prevL {
			t.Errorf("bound decreased at %vGbps: U %v->%v L %v->%v", g, prevU, res.Upper, prevL, res.Lower)
		}
		prevU, prevL = res.Upper, res.Lower
	}
	prevU = 0
	q := p.WithWriteRateGbps(5)
	for n := 1; n <= 32; n++ {
		res, err := Compute(q, n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Upper < prevU {
			t.Errorf("upper decreased at n=%d", n)
		}
		prevU = res.Upper
	}
}

func TestTableIIShape(t *testing.T) {
	// The qualitative claims of Table II:
	//  1. bounds grow monotonically with the write rate,
	//  2. the upper/lower gap is negligible (< 5% relative) at 4-6
	//     Gbps,
	//  3. the gap and the bound growth blow up at 7 Gbps (superlinear
	//     regime approaching write saturation).
	rows, err := TableII(DefaultParams(), 1, []float64{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		t.Logf("%v Gbps: lower %.3f upper %.3f", r.WriteRateGbps, r.Lower, r.Upper)
		if i > 0 && r.Lower <= rows[i-1].Lower {
			t.Errorf("lower bound not strictly increasing at %v Gbps", r.WriteRateGbps)
		}
	}
	for _, r := range rows[:3] {
		relGap := (r.Upper - r.Lower) / r.Lower
		if relGap > 0.05 {
			t.Errorf("gap at %v Gbps = %.1f%%, want < 5%%", r.WriteRateGbps, 100*relGap)
		}
	}
	// Superlinear growth: the 6->7 Gbps increment exceeds the 4->5
	// increment (the paper's increments are ~986ns then ~1953ns).
	inc45 := rows[1].Lower - rows[0].Lower
	inc67 := rows[3].Lower - rows[2].Lower
	if inc67 <= inc45 {
		t.Errorf("no superlinear blow-up: inc 4->5 = %v, inc 6->7 = %v", inc45, inc67)
	}
	// Magnitudes in the paper's regime (~1-10 us).
	if rows[0].Lower < 500 || rows[0].Lower > 5000 {
		t.Errorf("4 Gbps bound %v ns far outside the paper's regime", rows[0].Lower)
	}
}

func TestSaturationReturnsInfinity(t *testing.T) {
	// WritePerReq ~61.25ns/req at NWd=16: saturation near
	// 1/(61.25+15/16) ~ 0.0161 req/ns ~ 8.2 Gbps. At 10 Gbps the
	// controller is saturated.
	res, err := Compute(DefaultParams().WithWriteRateGbps(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Upper, 1) || !math.IsInf(res.Lower, 1) {
		t.Errorf("saturated bounds = %v/%v, want +Inf", res.Lower, res.Upper)
	}
}

func TestConvergenceWithinFewIterations(t *testing.T) {
	// The paper: "Convergence is reached within few iterations."
	res, err := Compute(DefaultParams().WithWriteRateGbps(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpperIterations > 50 {
		t.Errorf("upper bound took %d iterations", res.UpperIterations)
	}
}

func TestServiceCurve(t *testing.T) {
	p := DefaultParams().WithWriteRateGbps(4)
	c, err := ServiceCurve(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The curve passes through (t_N, N) conservatively: at t_N the
	// curve guarantees at least ... exactly N served.
	res, err := Compute(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval(res.Upper); got < 8-1e-6 {
		t.Errorf("service curve at t_8 = %v, want >= 8", got)
	}
	if c.Eval(0) != 0 {
		t.Error("service curve must start at 0")
	}
	if c.FinalSlope() <= 0 {
		t.Error("service curve should extend at the marginal rate")
	}
	// Composition with an interconnect: delay bound for a shaped read
	// flow through NoC + DRAM must be finite and exceed the raw WCD.
	noc := netcalc.RateLatency(0.2, 50) // 0.2 req/ns after 50ns
	e2e := netcalc.ConvolveAll(noc, c)
	alpha := netcalc.TokenBucket(2, 0.001)
	d := netcalc.DelayBound(alpha, e2e)
	if math.IsInf(d, 1) || d <= 0 {
		t.Errorf("end-to-end delay bound = %v", d)
	}
	single := netcalc.DelayBound(alpha, c)
	if d < single {
		t.Errorf("adding a resource reduced the delay bound: %v < %v", d, single)
	}
}

func TestServiceCurveSaturated(t *testing.T) {
	if _, err := ServiceCurve(DefaultParams().WithWriteRateGbps(10), 4); err == nil {
		t.Error("saturated service curve should error")
	}
	if _, err := ServiceCurve(DefaultParams(), 0); err == nil {
		t.Error("maxN=0 accepted")
	}
}

func TestOtherTechnologies(t *testing.T) {
	// The method applies to any technology by swapping parameters.
	for _, tc := range []struct {
		name string
		tm   dram.Timing
	}{
		{"DDR4_2400", dram.DDR4_2400()},
		{"LPDDR4_3200", dram.LPDDR4_3200()},
	} {
		p := DefaultParams()
		p.Timing = tc.tm
		res, err := Compute(p.WithWriteRateGbps(4), 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.IsInf(res.Upper, 1) || res.Upper <= 0 {
			t.Errorf("%s: upper = %v", tc.name, res.Upper)
		}
		if res.Lower > res.Upper {
			t.Errorf("%s: lower %v > upper %v", tc.name, res.Lower, res.Upper)
		}
	}
}

func TestQuickBoundsOrdered(t *testing.T) {
	f := func(g8, n8, burst8 uint8) bool {
		g := float64(g8%8) * 0.9
		n := int(n8%16) + 1
		p := DefaultParams()
		p.WriteBurst = float64(burst8 % 32)
		res, err := Compute(p.WithWriteRateGbps(g), n)
		if err != nil {
			return false
		}
		if math.IsInf(res.Upper, 1) {
			return math.IsInf(res.Lower, 1)
		}
		return res.Lower <= res.Upper+1e-9 && res.Lower > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWCDBoundVsSimulation is the X4 validation experiment: an
// adversarial trace on the transaction-level simulator must never
// exceed the analytic upper bound for the tagged read miss.
func TestWCDBoundVsSimulation(t *testing.T) {
	p := DefaultParams().WithWriteRateGbps(5)
	res, err := Compute(p, 1)
	if err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine()
	cfg := dram.DefaultConfig()
	cfg.WLow = 1 // drain writes aggressively: adversarial for reads
	cfg.WriteTimeout = 0
	cfg.WriteQueueCap = 4096
	ctrl, err := dram.NewController(eng, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Adversarial setup per the analysis: same bank, alternating rows
	// (every read a conflict), write burst at t=0 then sustained
	// token-bucket writes, tagged read arrives just after the burst.
	interArrival := sim.NS(1 / p.WriteRate) // ns between writes
	var row int64
	submitWrite := func() {
		row++
		_ = ctrl.Submit(&dram.Request{Op: dram.Write, Bank: 0, Row: 1000 + row%2})
	}
	for i := 0; i < int(p.WriteBurst); i++ {
		eng.At(0, submitWrite)
	}
	for k := 1; k <= 200; k++ {
		eng.At(sim.Duration(k)*interArrival, submitWrite)
	}
	tagged := &dram.Request{Op: dram.Read, Bank: 0, Row: 5}
	eng.At(1, func() { _ = ctrl.Submit(tagged) })
	eng.RunUntil(50 * sim.Microsecond)

	if tagged.Completion == 0 {
		t.Fatal("tagged read never completed")
	}
	got := tagged.Latency().Nanoseconds()
	if got > res.Upper {
		t.Errorf("simulated latency %.1fns exceeds analytic upper bound %.1fns", got, res.Upper)
	}
	t.Logf("simulated %.1fns vs bound [%.1f, %.1f]ns", got, res.Lower, res.Upper)
}

// referenceServiceCurve builds the service curve from full Compute
// calls, one per queue position, as the curve is defined.
func referenceServiceCurve(p Params, maxN int) (netcalc.Curve, error) {
	samples := make([]netcalc.Point, 0, maxN)
	for n := 1; n <= maxN; n++ {
		res, err := Compute(p, n)
		if err != nil {
			return netcalc.Curve{}, err
		}
		if math.IsInf(res.Upper, 1) {
			return netcalc.Curve{}, fmt.Errorf("wcd: controller saturated at write rate %g req/ns", p.WriteRate)
		}
		samples = append(samples, netcalc.Point{X: res.Upper, Y: float64(n)})
	}
	finalSlope := 0.0
	if maxN >= 2 {
		if dT := samples[maxN-1].X - samples[maxN-2].X; dT > 0 {
			finalSlope = 1 / dT
		}
	}
	return netcalc.FromSamples(samples, finalSlope)
}

// TestServiceCurveMatchesCompute pins the one-pass ServiceCurve to
// Compute: every sample equals Compute(p, n).Upper bit for bit, the
// curve equals the one built from those Compute calls bit for bit, and
// a saturated or invalid configuration fails with the same error.
// Write rates run from 0 to just below saturation on DDR3, DDR4 and
// LPDDR4 timing, with and without promoted row hits.
func TestServiceCurveMatchesCompute(t *testing.T) {
	const maxN = 32
	for _, tm := range []struct {
		name   string
		timing dram.Timing
	}{{"ddr3", dram.DDR3_1600()}, {"ddr4", dram.DDR4_2400()}, {"lpddr4", dram.LPDDR4_3200()}} {
		for _, ncap := range []int{16, 0} {
			p := DefaultParams()
			p.Timing, p.NCap = tm.timing, ncap
			cm := p.Costs()
			// The write rate at which fixpoint's growth reaches 1.
			sat := (1 - cm.RefreshCost/cm.RefreshPeriod) / (cm.WritePerReq + cm.BatchOverhead/float64(p.NWd))
			for _, frac := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 1.5} {
				p.WriteRate = frac * sat
				name := fmt.Sprintf("%s/ncap%d/%.3gsat", tm.name, ncap, frac)
				got, gotErr := ServiceCurve(p, maxN)
				want, wantErr := referenceServiceCurve(p, maxN)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
				}
				if frac >= 1 && gotErr == nil {
					t.Fatalf("%s: saturated controller gave a curve", name)
				}
				if gotErr != nil {
					continue
				}
				samples, err := upperSamples(p, maxN)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range samples {
					res, err := Compute(p, i+1)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(s.X) != math.Float64bits(res.Upper) {
						t.Fatalf("%s: sample %d at %v, Compute upper %v", name, i+1, s.X, res.Upper)
					}
				}
				gp, wp := got.Points(), want.Points()
				same := len(gp) == len(wp) && math.Float64bits(got.FinalSlope()) == math.Float64bits(want.FinalSlope())
				for i := 0; same && i < len(gp); i++ {
					same = math.Float64bits(gp[i].X) == math.Float64bits(wp[i].X) &&
						math.Float64bits(gp[i].Y) == math.Float64bits(wp[i].Y)
				}
				if !same {
					t.Fatalf("%s: curve %v, reference %v", name, got, want)
				}
			}
		}
	}
	bad := DefaultParams()
	bad.NWd = 0
	_, gotErr := ServiceCurve(bad, maxN)
	_, wantErr := referenceServiceCurve(bad, maxN)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("invalid params: error %v, reference %v", gotErr, wantErr)
	}
}
