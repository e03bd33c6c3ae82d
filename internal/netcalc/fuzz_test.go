package netcalc

import (
	"math"
	"sort"
	"testing"
)

// fuzzCurve decodes one curve from the front of b and returns the rest:
// a breakpoint count, a starting offset, then (dx, dy) steps and the
// final slope, all on a quarter grid so the fuzzer explores shapes
// rather than float bit patterns. Exhausted input reads as zeros.
func fuzzCurve(b []byte) (Curve, []byte) {
	next := func(mod int) int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0]) % mod
		b = b[1:]
		return v
	}
	quarters := func(mod int) float64 { return 0.25 * float64(next(mod)) }
	n := 1 + next(6)
	x, y := 0.0, quarters(16)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{x, y})
		x += 0.25 + quarters(64)
		y += quarters(64)
	}
	return MustCurve(pts, quarters(16)), b
}

// checkCanonical fails unless c is in the form NewCurve produces:
// finite breakpoints from X=0, strictly increasing in X, non-decreasing
// in Y, a finite non-negative final slope, and no breakpoint collinear
// with its neighbours.
func checkCanonical(t *testing.T, op string, c Curve) {
	t.Helper()
	pts := c.normPoints()
	if pts[0].X != 0 {
		t.Fatalf("%s: first breakpoint at X=%v: %v", op, pts[0].X, c)
	}
	if c.finalSlope < 0 || math.IsNaN(c.finalSlope) || math.IsInf(c.finalSlope, 0) {
		t.Fatalf("%s: final slope %v: %v", op, c.finalSlope, c)
	}
	for i, p := range pts {
		if math.IsNaN(p.X+p.Y) || math.IsInf(p.X+p.Y, 0) || p.Y < 0 {
			t.Fatalf("%s: breakpoint %d is %+v: %v", op, i, p, c)
		}
		if i == 0 {
			continue
		}
		if p.X <= pts[i-1].X || p.Y < pts[i-1].Y-eps {
			t.Fatalf("%s: breakpoints %d-%d not increasing: %v", op, i-1, i, c)
		}
		next := c.finalSlope
		if i+1 < len(pts) {
			next = slope(p, pts[i+1])
		}
		if almostEqual(slope(pts[i-1], p), next) {
			t.Fatalf("%s: breakpoint %d is collinear with its neighbours: %v", op, i, c)
		}
	}
}

// leq reports a <= b up to the package's comparison tolerance.
func leq(a, b float64) bool { return a <= b || almostEqual(a, b) }

// FuzzOperators drives the min-plus operators on three decoded curves:
// alpha as an arrival curve, beta and gamma as service curves. Every
// result must be canonical and satisfy the operator's defining bounds;
// convolution must commute; and the delay bound through the tandem
// beta (*) gamma must equal the two-stage composition DelayBoundThrough
// computes, cached or not.
func FuzzOperators(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		alpha, data := fuzzCurve(data)
		beta, data := fuzzCurve(data)
		gamma, _ := fuzzCurve(data)

		conv := Convolve(beta, gamma)
		checkCanonical(t, "Convolve", conv)
		if rev := Convolve(gamma, beta); !conv.Equal(rev) {
			t.Fatalf("Convolve does not commute:\n  b*g = %v\n  g*b = %v", conv, rev)
		}
		res := Residual(beta, alpha)
		checkCanonical(t, "Residual", res)
		dec, decErr := Deconvolve(alpha, beta)
		if decErr == nil {
			checkCanonical(t, "Deconvolve", dec)
		} else if alpha.finalSlope <= beta.finalSlope {
			t.Fatalf("Deconvolve refused a bounded pair: %v", decErr)
		}

		// Sample every operand and result breakpoint plus one point
		// past them all.
		var xs []float64
		for _, c := range []Curve{alpha, beta, gamma, conv, res, dec} {
			for _, p := range c.normPoints() {
				xs = append(xs, p.X)
			}
		}
		xs = sortedUnique(xs)
		xs = append(xs, xs[len(xs)-1]+1)
		b0, g0 := beta.Eval(0), gamma.Eval(0)
		for _, x := range xs {
			// (b*g)(x) = inf_u b(u)+g(x-u): at most either endpoint
			// term, at least b(0)+g(0).
			if v := conv.Eval(x); !leq(v, beta.Eval(x)+g0) || !leq(v, b0+gamma.Eval(x)) || !leq(b0+g0, v) {
				t.Fatalf("Convolve(%v) = %v outside [%v, min(%v, %v)]", x, v, b0+g0, beta.Eval(x)+g0, b0+gamma.Eval(x))
			}
			// The leftover service is the non-decreasing closure of
			// max(0, beta - alpha), so it lies between that and beta.
			if v := res.Eval(x); !leq(beta.Eval(x)-alpha.Eval(x), v) || !leq(v, beta.Eval(x)) {
				t.Fatalf("Residual(%v) = %v outside [%v, %v]", x, v, beta.Eval(x)-alpha.Eval(x), beta.Eval(x))
			}
			// (a/b)(x) = sup_u a(x+u)-b(u) includes u = 0.
			if decErr == nil && !leq(alpha.Eval(x)-b0, dec.Eval(x)) {
				t.Fatalf("Deconvolve(%v) = %v below alpha-beta(0) = %v", x, dec.Eval(x), alpha.Eval(x)-b0)
			}
		}

		want := DelayBound(alpha, conv)
		for name, got := range map[string]float64{
			"DelayBoundThrough":       DelayBoundThrough(alpha, beta, gamma),
			"Cache.DelayBoundThrough": NewCache(8).DelayBoundThrough(alpha, beta, gamma),
		} {
			if got != want && !almostEqual(got, want) {
				t.Fatalf("%s = %v, DelayBound(alpha, beta*gamma) = %v", name, got, want)
			}
		}
	})
}

// fuzzConvexCurve decodes a curve with fuzzCurve and makes it convex:
// its pieces re-joined in ascending slope order from the same offset,
// and the final slope raised to at least the steepest piece's.
func fuzzConvexCurve(b []byte) (Curve, []byte) {
	c, b := fuzzCurve(b)
	pts := c.normPoints()
	steps := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		steps = append(steps, Point{pts[i].X - pts[i-1].X, pts[i].Y - pts[i-1].Y})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].Y/steps[i].X < steps[j].Y/steps[j].X })
	out := []Point{pts[0]}
	final := c.finalSlope
	for _, s := range steps {
		last := out[len(out)-1]
		out = append(out, Point{last.X + s.X, last.Y + s.Y})
		final = math.Max(final, s.Y/s.X)
	}
	return MustCurve(out, final), b
}

// FuzzConvolveConvex drives the closed-form convolution on two decoded
// convex curves: Convolve must take it, its result must be canonical,
// and it must Equal the general envelope construction: the same
// breakpoints within the package's tolerance (the two round
// differently in the low bits on some shapes;
// TestAuditOperandsBitIdentical pins bit identity on the auditor's own
// operands).
func FuzzConvolveConvex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 8, 0, 4})
	f.Add([]byte{3, 2, 5, 9, 0, 12, 30, 7, 2, 4, 1, 6, 3, 40})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 3, 5, 6, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		beta, data := fuzzConvexCurve(data)
		gamma, _ := fuzzConvexCurve(data)
		if !isConvex(beta) || !isConvex(gamma) {
			t.Fatalf("decoded curves are not convex: %v, %v", beta, gamma)
		}
		closed, ok := convolveConvex(beta, gamma)
		if !ok {
			t.Fatalf("closed form refused %v (*) %v", beta, gamma)
		}
		checkCanonical(t, "convolveConvex", closed)
		if got := Convolve(beta, gamma); !got.identical(closed) {
			t.Fatalf("Convolve did not take the closed form:\n  Convolve %v\n  closed   %v", got, closed)
		}
		if env := convolveEnvelope(beta, gamma); !closed.Equal(env) {
			t.Fatalf("%v (*) %v:\n  closed form %v\n  envelope    %v", beta, gamma, closed, env)
		}
	})
}
