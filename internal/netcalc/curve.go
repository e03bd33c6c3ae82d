// Package netcalc implements deterministic Network Calculus (Le Boudec &
// Thiran, LNCS 2050) on piecewise-linear curves: arrival curves, service
// curves, min-plus convolution and deconvolution, and the delay and
// backlog bounds used throughout the paper's Section IV.
//
// A Curve is a wide-sense-increasing piecewise-linear function
// f: [0, +inf) -> [0, +inf), represented by its breakpoints plus a final
// slope that extends the last piece to infinity. Token buckets are
// represented right-continuously: TokenBucket(b, r) has f(0) = b, which
// is the standard convention for arrival-curve arithmetic and leaves all
// delay/backlog bounds unchanged.
//
// Units are the caller's choice; within this repository time is
// nanoseconds and amount is requests or bytes, per use site.
package netcalc

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// eps is the tolerance for breakpoint and slope comparisons. Curve
// coordinates in this repository span roughly [0, 1e9], so comparisons
// use a relative-plus-absolute guard built on this base.
const eps = 1e-9

func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= eps || diff <= eps*(math.Abs(a)+math.Abs(b))
}

// Point is a curve breakpoint.
type Point struct {
	X float64 // time
	Y float64 // cumulative amount
}

// Curve is a wide-sense-increasing piecewise-linear function on [0, inf).
// The zero value is the constant-zero curve.
type Curve struct {
	// pts are the breakpoints in strictly increasing X order with
	// pts[0].X == 0. Between consecutive points the function is affine;
	// after the last point it continues with slope finalSlope.
	pts        []Point
	finalSlope float64
}

// NewCurve builds a curve from breakpoints and a final slope.
// It returns an error unless the points start at X=0, are strictly
// increasing in X, non-decreasing in Y, and the final slope is >= 0.
func NewCurve(pts []Point, finalSlope float64) (Curve, error) {
	if len(pts) == 0 {
		return Curve{}, fmt.Errorf("netcalc: curve needs at least one point")
	}
	if pts[0].X != 0 {
		return Curve{}, fmt.Errorf("netcalc: first breakpoint must be at X=0, got %v", pts[0].X)
	}
	if finalSlope < 0 {
		return Curve{}, fmt.Errorf("netcalc: negative final slope %v", finalSlope)
	}
	for i, p := range pts {
		if p.X < 0 || p.Y < 0 {
			return Curve{}, fmt.Errorf("netcalc: negative coordinate at point %d: %+v", i, p)
		}
		if i > 0 {
			if p.X <= pts[i-1].X {
				return Curve{}, fmt.Errorf("netcalc: breakpoints not strictly increasing at %d", i)
			}
			if p.Y < pts[i-1].Y-eps {
				return Curve{}, fmt.Errorf("netcalc: curve decreasing at point %d", i)
			}
		}
	}
	c := Curve{pts: append([]Point(nil), pts...), finalSlope: finalSlope}
	c.simplify()
	return c, nil
}

// MustCurve is NewCurve that panics on invalid input; for literals in
// tests and table-driven construction.
func MustCurve(pts []Point, finalSlope float64) Curve {
	c, err := NewCurve(pts, finalSlope)
	if err != nil {
		panic(err)
	}
	return c
}

// Zero returns the constant-zero curve.
func Zero() Curve { return MustCurve([]Point{{0, 0}}, 0) }

// Constant returns the constant curve f(t) = v.
func Constant(v float64) Curve { return MustCurve([]Point{{0, v}}, 0) }

// TokenBucket returns the arrival curve of a token-bucket shaper with
// burst b and sustained rate r: f(t) = b + r*t (right-continuous at 0).
func TokenBucket(b, r float64) Curve {
	return MustCurve([]Point{{0, b}}, r)
}

// RateLatency returns the service curve of a rate-latency server:
// f(t) = R * max(0, t-T).
func RateLatency(rate, latency float64) Curve {
	if latency == 0 {
		return MustCurve([]Point{{0, 0}}, rate)
	}
	return MustCurve([]Point{{0, 0}, {latency, 0}}, rate)
}

// Affine returns f(t) = offset + slope*t.
func Affine(offset, slope float64) Curve {
	return MustCurve([]Point{{0, offset}}, slope)
}

// FromSamples builds a curve from arbitrary (X, Y) samples of a
// wide-sense-increasing function, sorting them and prepending (0, y0)
// if needed; after the last sample the curve continues with finalSlope.
func FromSamples(samples []Point, finalSlope float64) (Curve, error) {
	// One slot ahead of the samples for a prepended origin.
	buf := append(make([]Point, 1, len(samples)+1), samples...)
	s := buf[1:]
	for i := 1; i < len(s); i++ {
		if s[i].X < s[i-1].X {
			sort.Slice(s, func(i, j int) bool { return s[i].X < s[j].X })
			break
		}
	}
	// Drop duplicate Xs, keeping the max Y (conservative for service
	// curves built from measured points).
	out := s[:0]
	for _, p := range s {
		if len(out) > 0 && almostEqual(out[len(out)-1].X, p.X) {
			if p.Y > out[len(out)-1].Y {
				out[len(out)-1].Y = p.Y
			}
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 || out[0].X > 0 {
		out = buf[:len(out)+1]
		out[0] = Point{0, 0}
	}
	return NewCurve(out, finalSlope)
}

// simplify removes breakpoints that are collinear with their neighbours.
func (c *Curve) simplify() {
	if len(c.pts) < 2 {
		return
	}
	out := c.pts[:1]
	for i := 1; i < len(c.pts); i++ {
		p := c.pts[i]
		var nextSlope float64
		if i+1 < len(c.pts) {
			nextSlope = slope(p, c.pts[i+1])
		} else {
			nextSlope = c.finalSlope
		}
		prevSlope := slope(out[len(out)-1], p)
		if almostEqual(prevSlope, nextSlope) {
			continue // p is collinear; drop it
		}
		out = append(out, p)
	}
	c.pts = out
}

func slope(a, b Point) float64 { return (b.Y - a.Y) / (b.X - a.X) }

// Eval returns f(t). Negative t evaluates to f(0).
func (c Curve) Eval(t float64) float64 {
	if len(c.pts) == 0 {
		return 0
	}
	if t <= c.pts[0].X {
		return c.pts[0].Y
	}
	// Find the last breakpoint with X <= t.
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].X > t }) - 1
	p := c.pts[i]
	var s float64
	if i+1 < len(c.pts) {
		s = slope(p, c.pts[i+1])
	} else {
		s = c.finalSlope
	}
	return p.Y + s*(t-p.X)
}

// SlopeAt returns the right-derivative of the curve at t.
func (c Curve) SlopeAt(t float64) float64 {
	if len(c.pts) == 0 {
		return 0
	}
	if t < c.pts[0].X {
		t = c.pts[0].X
	}
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].X > t }) - 1
	if i < 0 {
		i = 0
	}
	if i+1 < len(c.pts) {
		return slope(c.pts[i], c.pts[i+1])
	}
	return c.finalSlope
}

// Inverse returns the smallest t such that f(t) >= y, or +Inf if the
// curve never reaches y.
func (c Curve) Inverse(y float64) float64 {
	if len(c.pts) == 0 {
		if y <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	if y <= c.pts[0].Y {
		return 0
	}
	for i := 1; i < len(c.pts); i++ {
		if c.pts[i].Y >= y {
			prev := c.pts[i-1]
			s := slope(prev, c.pts[i])
			if s == 0 {
				return c.pts[i].X
			}
			return prev.X + (y-prev.Y)/s
		}
	}
	last := c.pts[len(c.pts)-1]
	if c.finalSlope == 0 {
		return math.Inf(1)
	}
	return last.X + (y-last.Y)/c.finalSlope
}

// InverseStrict returns the smallest t such that f(t) > y, or +Inf if
// the curve never exceeds y. It differs from Inverse on flat segments:
// Inverse returns their start, InverseStrict their end. DelayBound
// needs it to capture suprema approached just past a flat service
// segment.
func (c Curve) InverseStrict(y float64) float64 {
	pts := c.normPoints()
	for i := 0; i < len(pts); i++ {
		if pts[i].Y > y+eps {
			if i == 0 {
				return 0
			}
			prev := pts[i-1]
			s := slope(prev, pts[i])
			return prev.X + (y-prev.Y)/s
		}
	}
	last := pts[len(pts)-1]
	if c.finalSlope == 0 {
		return math.Inf(1)
	}
	if y < last.Y {
		y = last.Y
	}
	return last.X + (y-last.Y)/c.finalSlope
}

// Points returns a copy of the curve's breakpoints.
func (c Curve) Points() []Point {
	if len(c.pts) == 0 {
		return []Point{{0, 0}}
	}
	return append([]Point(nil), c.pts...)
}

// FinalSlope returns the slope of the curve after its last breakpoint.
func (c Curve) FinalSlope() float64 { return c.finalSlope }

// IsZero reports whether the curve is identically zero.
func (c Curve) IsZero() bool {
	if c.finalSlope != 0 {
		return false
	}
	for _, p := range c.pts {
		if p.Y != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two curves are equal within tolerance.
func (c Curve) Equal(d Curve) bool {
	cp, dp := c.normPoints(), d.normPoints()
	if len(cp) != len(dp) || !almostEqual(c.finalSlope, d.finalSlope) {
		return false
	}
	for i := range cp {
		if !almostEqual(cp[i].X, dp[i].X) || !almostEqual(cp[i].Y, dp[i].Y) {
			return false
		}
	}
	return true
}

func (c Curve) normPoints() []Point {
	if len(c.pts) == 0 {
		return []Point{{0, 0}}
	}
	return c.pts
}

// String renders the curve's breakpoints and final slope.
func (c Curve) String() string {
	var b strings.Builder
	b.WriteString("Curve{")
	for i, p := range c.normPoints() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%g,%g)", p.X, p.Y)
	}
	fmt.Fprintf(&b, "; slope %g}", c.finalSlope)
	return b.String()
}
