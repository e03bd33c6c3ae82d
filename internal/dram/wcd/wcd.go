// Package wcd computes worst-case delay (WCD) bounds for a read miss
// arriving at an FR-FCFS DRAM controller, reproducing the algorithm of
// Section IV-A of the paper (and Table II).
//
// The model follows the paper's assumptions exactly: all requests
// target the same bank (so the controller serves them sequentially), no
// read/write short-circuiting, reads are the critical path, writes are
// drained in batches of NWd per the watermark policy, row hits are
// promoted up to NCap, and refreshes fire on the tREFI timer. Write
// arrivals are bounded by a token bucket with burst b (requests) and
// rate r (requests per nanosecond) — the enforceable arrival model the
// paper adopts.
//
// Algorithm (paper steps 1-4):
//  1. T_N: time to serve the N read misses ahead of (and including) the
//     tagged one.
//  2. T_H: time to schedule NCap promoted read hits back-to-back (their
//     batch cost is convex in the count, so back-to-back maximizes it).
//  3. Add the largest number of write batches schedulable within T.
//  4. Add the largest number of refreshes schedulable within T.
//
// Steps 3-4 are iterated to a fixed point: growing T admits more write
// batches and refreshes, which grow T again. Convergence is reached in
// a few iterations whenever the write load is feasible.
//
// The lower bound repeats steps 1, 3 and 4 but packs the NCap hits as
// early as possible (they then cost only their data bursts). The gap
// between the bounds is null-to-negligible until the write rate
// approaches the controller's write-drain capacity, where the fixed
// point amplifies the difference — exactly the behaviour Table II
// reports at 7 Gbps.
//
// The paper derives per-command service times from the COMPSAC'20 [14]
// adaptive-traffic-profile model, which it does not restate; this
// package re-derives them from the Table I parameters (see CostModel).
// Absolute values therefore differ from the paper's by a model
// constant, while the qualitative shape is preserved; EXPERIMENTS.md
// tabulates both side by side.
package wcd

import (
	"fmt"
	"math"

	"repro/internal/dram"
	"repro/internal/netcalc"
)

// Params configures a bound computation.
type Params struct {
	Timing dram.Timing
	// NWd is the write batch length; NCap the row-hit promotion cap.
	NWd, NCap int
	// WriteBurst is the token-bucket burst of the aggregate write
	// traffic, in requests; WriteRate its sustained rate in requests
	// per nanosecond.
	WriteBurst float64
	WriteRate  float64
	// LineSize (bytes per request) is used by the Gbps helpers.
	LineSize int
}

// DefaultParams returns the Table II configuration: DDR3-1600,
// NWd = NCap = 16, write burst 8, 64-byte requests. The write rate is
// zero; set it per experiment (e.g. WithWriteRateGbps).
func DefaultParams() Params {
	return Params{
		Timing:     dram.DDR3_1600(),
		NWd:        16,
		NCap:       16,
		WriteBurst: 8,
		LineSize:   64,
	}
}

// WithWriteRateGbps returns a copy of p with the write rate set from a
// line rate in gigabits per second.
func (p Params) WithWriteRateGbps(gbps float64) Params {
	p.WriteRate = GbpsToReqPerNS(gbps, p.LineSize)
	return p
}

// GbpsToReqPerNS converts a line rate in Gbps to requests per
// nanosecond for the given request size in bytes.
func GbpsToReqPerNS(gbps float64, lineSize int) float64 {
	if lineSize <= 0 {
		lineSize = 64
	}
	bytesPerNS := gbps / 8
	return bytesPerNS / float64(lineSize)
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Timing.Validate(); err != nil {
		return err
	}
	if p.NWd <= 0 {
		return fmt.Errorf("wcd: NWd must be positive, got %d", p.NWd)
	}
	if p.NCap < 0 {
		return fmt.Errorf("wcd: NCap must be non-negative, got %d", p.NCap)
	}
	if p.WriteBurst < 0 || p.WriteRate < 0 {
		return fmt.Errorf("wcd: write burst/rate must be non-negative, got %g/%g",
			p.WriteBurst, p.WriteRate)
	}
	return nil
}

// CostModel is the per-phase service-time composition (nanoseconds)
// derived from the timing parameters. It is exported so that ablation
// studies can perturb individual components.
type CostModel struct {
	// ReadMiss is the cost of one row-conflict read served FCFS:
	// tRP + tRCD + tCL + tBurst.
	ReadMiss float64
	// HitBurst is the pipelined cost of one promoted row hit: tBurst.
	HitBurst float64
	// HitBatchSetup is the pipeline-fill cost paid when a batch of
	// hits is served back-to-back as its own block: tCL. The upper
	// bound charges it; the lower bound packs hits into existing
	// gaps and does not.
	HitBatchSetup float64
	// WritePerReq is the worst-case cost of one write in a batch
	// (same-bank row conflict): tWR + tRP + tRCD + tCL + tBurst.
	WritePerReq float64
	// BatchOverhead is the bus turnaround in and out of a write batch:
	// (tRTW + tCS) + (tWTR + tCS).
	BatchOverhead float64
	// RefreshCost is tRFC; RefreshPeriod is tREFI.
	RefreshCost   float64
	RefreshPeriod float64
}

// Costs derives the cost model from the parameters.
func (p Params) Costs() CostModel {
	t := p.Timing
	return CostModel{
		ReadMiss:      t.ReadConflict().Nanoseconds(),
		HitBurst:      t.ReadHit().Nanoseconds(),
		HitBatchSetup: t.TCL.Nanoseconds(),
		WritePerReq:   t.WriteConflict().Nanoseconds(),
		BatchOverhead: (t.ReadToWrite() + t.WriteToRead()).Nanoseconds(),
		RefreshCost:   t.TRFC.Nanoseconds(),
		RefreshPeriod: t.TREFI.Nanoseconds(),
	}
}

// Result is the outcome of one bound computation.
type Result struct {
	// Upper and Lower bound the WCD of the tagged read miss, in ns.
	// Both are +Inf when the write load saturates the controller.
	Upper, Lower float64
	// UpperIterations and LowerIterations count fixed-point rounds.
	UpperIterations, LowerIterations int
	// Exact reports whether the two bounds coincide, in which case the
	// value is the WCD itself (the computed schedule is feasible).
	Exact bool
}

// maxIterations bounds the fixed-point loop; the paper observes
// convergence "within few iterations", so hitting this means the write
// load is at or beyond saturation.
const maxIterations = 10000

// Compute bounds the delay of a read miss that enters the read queue at
// position n (i.e. n misses, including the tagged one, must be served).
func Compute(p Params, n int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("wcd: queue position n must be >= 1, got %d", n)
	}
	cm := p.Costs()

	// Steps 1-2, upper: misses plus a worst-case back-to-back hit
	// block. Lower: hits packed into existing service gaps.
	baseLower := float64(n)*cm.ReadMiss + float64(p.NCap)*cm.HitBurst

	upper, itU := fixpoint(p, cm, upperBase(p, cm, n))
	lower, itL := fixpoint(p, cm, baseLower)
	return Result{
		Upper:           upper,
		Lower:           lower,
		UpperIterations: itU,
		LowerIterations: itL,
		Exact:           !math.IsInf(upper, 1) && almostEq(upper, lower),
	}, nil
}

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// upperBase is the upper bound's steps 1-2 for queue position n: n
// misses plus a worst-case back-to-back block of NCap hits.
func upperBase(p Params, cm CostModel, n int) float64 {
	return float64(n)*cm.ReadMiss + hitBlockCost(cm, p.NCap)
}

// hitBlockCost is the convex cost of serving k hits back-to-back as a
// standalone block: one pipeline fill plus k bursts.
func hitBlockCost(cm CostModel, k int) float64 {
	if k <= 0 {
		return 0
	}
	return cm.HitBatchSetup + float64(k)*cm.HitBurst
}

// fixpoint iterates steps 3-4 until T stabilizes. Step 3 charges every
// token-bucket-conformant write arrival its service time plus one bus
// turnaround per batch of NWd (the final batch may be partial: the
// controller drains whatever is queued once it switches).
func fixpoint(p Params, cm CostModel, base float64) (float64, int) {
	// Long-run feasibility: every nanosecond of delay admits
	// WriteRate more writes (each costing WritePerReq plus its share
	// of a batch turnaround) and 1/tREFI refreshes worth of work.
	growth := p.WriteRate*(cm.WritePerReq+cm.BatchOverhead/float64(p.NWd)) +
		cm.RefreshCost/cm.RefreshPeriod
	if growth >= 1 {
		return math.Inf(1), 0
	}

	T := base
	for i := 1; i <= maxIterations; i++ {
		nw := writesServed(p, T)
		nb := (nw + p.NWd - 1) / p.NWd
		nr := refreshes(cm, T)
		next := base + float64(nw)*cm.WritePerReq +
			float64(nb)*cm.BatchOverhead + float64(nr)*cm.RefreshCost
		if next <= T {
			return T, i
		}
		T = next
	}
	return math.Inf(1), maxIterations
}

// writesServed is the largest number of writes schedulable within T:
// all token-bucket-conformant arrivals.
func writesServed(p Params, T float64) int {
	arrivals := p.WriteBurst + p.WriteRate*T
	if arrivals <= 0 {
		return 0
	}
	return int(math.Ceil(arrivals))
}

// refreshes is the largest number of refreshes schedulable within T:
// the timer may expire immediately at the start of the window.
func refreshes(cm CostModel, T float64) int {
	if T < 0 {
		return 0
	}
	return int(math.Floor(T/cm.RefreshPeriod)) + 1
}

// ServiceCurve builds a Network Calculus service curve for the
// controller's read service from the upper bound: the point (t_N, N)
// states that N read misses are guaranteed served within t_N. The curve
// composes with other per-resource curves (e.g. an interconnect
// rate-latency curve) for end-to-end analysis, as Section IV describes.
// The Y unit is requests; multiply by the line size for bytes.
func ServiceCurve(p Params, maxN int) (netcalc.Curve, error) {
	samples, err := upperSamples(p, maxN)
	if err != nil {
		return netcalc.Curve{}, err
	}
	// Continue past the last sample at the marginal service rate; for a
	// feasible write load t_N is asymptotically linear in N, so the last
	// segment's slope is the long-run rate.
	finalSlope := 0.0
	if maxN >= 2 {
		dT := samples[maxN-1].X - samples[maxN-2].X
		if dT > 0 {
			finalSlope = 1 / dT
		}
	}
	return netcalc.FromSamples(samples, finalSlope)
}

// upperSamples returns (Compute(p, n).Upper, n) for n = 1..maxN in one
// pass: the parameters are validated and the cost model derived once,
// and only the upper fixed point runs per n.
func upperSamples(p Params, maxN int) ([]netcalc.Point, error) {
	if maxN < 1 {
		return nil, fmt.Errorf("wcd: maxN must be >= 1, got %d", maxN)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cm := p.Costs()
	samples := make([]netcalc.Point, 0, maxN)
	for n := 1; n <= maxN; n++ {
		upper, _ := fixpoint(p, cm, upperBase(p, cm, n))
		if math.IsInf(upper, 1) {
			return nil, fmt.Errorf("wcd: controller saturated at write rate %g req/ns", p.WriteRate)
		}
		samples = append(samples, netcalc.Point{X: upper, Y: float64(n)})
	}
	return samples, nil
}

// TableRow is one line of the Table II reproduction.
type TableRow struct {
	WriteRateGbps float64
	Lower, Upper  float64 // ns
}

// TableII computes lower and upper WCD bounds across write rates for a
// read miss at queue position n, reproducing the structure of the
// paper's Table II (which uses rates 4-7 Gbps).
func TableII(p Params, n int, ratesGbps []float64) ([]TableRow, error) {
	rows := make([]TableRow, 0, len(ratesGbps))
	for _, g := range ratesGbps {
		res, err := Compute(p.WithWriteRateGbps(g), n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableRow{WriteRateGbps: g, Lower: res.Lower, Upper: res.Upper})
	}
	return rows, nil
}
