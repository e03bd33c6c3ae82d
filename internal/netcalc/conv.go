package netcalc

import (
	"fmt"
	"math"
	"sync"
)

// convScratch holds the intermediate buffers of one Convolve call.
// Convolution of an n-segment curve with an m-segment curve builds
// n*m partial functions plus candidate/crossing coordinate lists;
// allocating those per call made Convolve the analytic plane's
// dominant allocation source. The buffers are recycled through a
// sync.Pool — only the result curve's breakpoints escape.
type convScratch struct {
	fsegs, gsegs []segment
	partials     []partial
	xs, base     []float64
}

var convScratchPool = sync.Pool{New: func() interface{} { return new(convScratch) }}

// Convolve returns the min-plus convolution
//
//	(f (*) g)(t) = inf_{0<=u<=t} [ f(u) + g(t-u) ]
//
// which is the composition operator for service curves: a flow crossing
// two servers with service curves f and g receives the end-to-end
// service curve f (*) g. The result is exact for arbitrary
// piecewise-linear wide-sense-increasing curves. When both operands are
// convex (rate-latency curves, the WCD DRAM curve) it has a closed form
// (convolveConvex); any other pair (TDMA and CBS staircases, token
// buckets against them) takes the general lower-envelope construction
// (convolveEnvelope).
func Convolve(f, g Curve) Curve {
	if isConvex(f) && isConvex(g) {
		if out, ok := convolveConvex(f, g); ok {
			return out
		}
	}
	return convolveEnvelope(f, g)
}

// isConvex reports whether c's slopes never decrease from one piece to
// the next, the final slope included. An offset at zero (a token
// bucket's burst) does not count against it: Convolve factors offsets
// out.
func isConvex(c Curve) bool {
	pts := c.normPoints()
	prev := 0.0
	for i := 1; i < len(pts); i++ {
		s := slope(pts[i-1], pts[i])
		if s < prev {
			return false
		}
		prev = s
	}
	return c.finalSlope >= prev
}

// convolveConvex is the closed form of f (*) g for convex f and g (Le
// Boudec & Thiran): starting at f(0)+g(0), the pieces of
// both curves joined in ascending slope order (f's first on a tie),
// up to the first infinite piece, whose slope is the smaller final
// slope. A breakpoint after i pieces of f and j of g sits at
// (xf_i + xg_j, (yf_i - f(0)) + (yg_j - g(0)) + f(0)+g(0)), which is
// how the envelope construction computes the same point. ok is false
// if rounding makes two breakpoints coincide; the caller then takes the
// envelope path.
func convolveConvex(f, g Curve) (out Curve, ok bool) {
	fp, gp := f.normPoints(), g.normPoints()
	final := math.Min(f.finalSlope, g.finalSlope)
	pts := make([]Point, 1, len(fp)+len(gp)-1)
	i, j := 0, 0
	for {
		sf, sg := math.Inf(1), math.Inf(1)
		if i+1 < len(fp) {
			sf = slope(fp[i], fp[i+1])
		}
		if j+1 < len(gp) {
			sg = slope(gp[j], gp[j+1])
		}
		switch {
		case sf <= sg && sf <= final:
			i++
		case sg <= final:
			j++
		default:
			off := fp[0].Y + gp[0].Y
			for k := range pts {
				pts[k].Y += off
			}
			out = Curve{pts: pts, finalSlope: final}
			out.simplify()
			return out, true
		}
		p := Point{fp[i].X + gp[j].X, (fp[i].Y - fp[0].Y) + (gp[j].Y - gp[0].Y)}
		if p.X <= pts[len(pts)-1].X {
			return Curve{}, false
		}
		pts = append(pts, p)
	}
}

// convolveEnvelope is the general convolution: each pair of segments
// is convolved (segments concatenate in ascending slope order) and the
// result is the lower envelope of all partial convolutions.
func convolveEnvelope(f, g Curve) Curve {
	sc := convScratchPool.Get().(*convScratch)
	// (f (*) g)(t) >= f(0)+g(0); factor the offsets out so that the
	// segment machinery can assume both operands start at 0.
	f0, g0 := f.Eval(0), g.Eval(0)
	sc.fsegs = appendSegments(sc.fsegs[:0], f)
	sc.gsegs = appendSegments(sc.gsegs[:0], g)

	sc.partials = sc.partials[:0]
	for _, a := range sc.fsegs {
		for _, b := range sc.gsegs {
			sc.partials = append(sc.partials, convSegments(a, b))
		}
	}
	env := lowerEnvelope(sc)
	// Re-apply the offsets.
	pts := env.Points()
	for i := range pts {
		pts[i].Y += f0 + g0
	}
	out := MustCurve(pts, env.finalSlope)
	convScratchPool.Put(sc)
	return out
}

// ConvolveAll composes a chain of service curves, cheapest operands
// first (see Cache.ConvolveAll for the ordering rationale and the
// bit-identity guarantee versus the left fold).
func ConvolveAll(curves ...Curve) Curve {
	return (*Cache)(nil).ConvolveAll(curves...)
}

// Deconvolve returns the min-plus deconvolution
//
//	(f (/) g)(t) = sup_{u>=0} [ f(t+u) - g(u) ]
//
// used to bound the arrival curve of a flow at the output of a server:
// if f is the input arrival curve and g the service curve, f (/) g
// constrains the output. It returns an error if the result is unbounded,
// i.e. f grows strictly faster than g at infinity.
func Deconvolve(f, g Curve) (Curve, error) {
	if f.finalSlope > g.finalSlope+eps {
		return Curve{}, fmt.Errorf("netcalc: deconvolution unbounded: arrival final slope %g exceeds service final slope %g",
			f.finalSlope, g.finalSlope)
	}
	// For fixed t, u -> f(t+u) - g(u) is piecewise linear; its supremum
	// is attained at u = 0 or where the slope changes sign, which can
	// only happen at breakpoints of g or at breakpoints of f shifted by
	// t. As a function of t the result is piecewise linear with
	// breakpoints among {xf_i - xg_j} and {xf_i}; evaluating exactly at
	// those candidates reconstructs the curve.
	fp, gp := f.normPoints(), g.normPoints()
	var ts []float64
	for _, pf := range fp {
		ts = append(ts, pf.X)
		for _, pg := range gp {
			if d := pf.X - pg.X; d >= 0 {
				ts = append(ts, d)
			}
		}
	}
	ts = sortedUnique(ts)

	evalAt := func(t float64) float64 {
		best := math.Inf(-1)
		consider := func(u float64) {
			if u < 0 {
				return
			}
			if v := f.Eval(t+u) - g.Eval(u); v > best {
				best = v
			}
		}
		consider(0)
		for _, pg := range gp {
			consider(pg.X)
		}
		for _, pf := range fp {
			consider(pf.X - t)
		}
		// If f outruns g on the final pieces the sup is at u -> inf;
		// slopes were checked above so the limit is finite only when
		// slopes are equal, in which case the limsup equals the value
		// at the last breakpoint direction. Sample one far point to
		// cover the equal-slope case.
		uFar := lastX(fp) + lastX(gp) + t + 1
		consider(uFar)
		if best < 0 {
			best = 0
		}
		return best
	}
	return buildFrom(ts, evalAt, f.finalSlope), nil
}

func lastX(pts []Point) float64 { return pts[len(pts)-1].X }

// segment is one affine piece of a curve. length is +Inf for the final
// piece.
type segment struct {
	x0, y0 float64
	slope  float64
	length float64
}

// appendSegments decomposes a curve (minus its value at zero) into
// segments, appending to segs (usually a recycled scratch buffer).
func appendSegments(segs []segment, c Curve) []segment {
	pts := c.normPoints()
	y0 := pts[0].Y
	for i := 0; i < len(pts); i++ {
		p := pts[i]
		if i+1 < len(pts) {
			q := pts[i+1]
			segs = append(segs, segment{p.X, p.Y - y0, slope(p, q), q.X - p.X})
		} else {
			segs = append(segs, segment{p.X, p.Y - y0, c.finalSlope, math.Inf(1)})
		}
	}
	return segs
}

// partial is a piecewise-linear function defined on [start, end)
// (+Inf outside), used as an intermediate in convolution envelopes.
// A partial produced by convSegments has at most two pieces, so they
// live in a fixed-size array: building one allocates nothing.
type partial struct {
	start float64
	n     int
	pcs   [2]piece // pcs[:n] contiguous from start
}

type piece struct {
	y0     float64 // value at the piece's start
	slope  float64
	length float64 // +Inf allowed only on the last piece
}

func (p *partial) end() float64 {
	e := p.start
	for _, pc := range p.pcs[:p.n] {
		e += pc.length
	}
	return e
}

// eval evaluates the partial at x; outside its domain it returns +Inf.
func (p *partial) eval(x float64) float64 {
	if x < p.start-eps {
		return math.Inf(1)
	}
	off := x - p.start
	for _, pc := range p.pcs[:p.n] {
		if off <= pc.length || math.IsInf(pc.length, 1) {
			return pc.y0 + pc.slope*math.Min(off, pc.length)
		}
		off -= pc.length
	}
	return math.Inf(1)
}

// slopeAt returns the slope of the partial's piece containing x
// (right-continuous), or 0 outside the domain.
func (p *partial) slopeAt(x float64) float64 {
	if x < p.start-eps {
		return 0
	}
	off := x - p.start
	for _, pc := range p.pcs[:p.n] {
		if off < pc.length {
			return pc.slope
		}
		off -= pc.length
	}
	return 0
}

// appendBreakXs appends the absolute Xs of the partial's piece
// boundaries to xs.
func (p *partial) appendBreakXs(xs []float64) []float64 {
	xs = append(xs, p.start)
	x := p.start
	for _, pc := range p.pcs[:p.n] {
		if math.IsInf(pc.length, 1) {
			break
		}
		x += pc.length
		xs = append(xs, x)
	}
	return xs
}

// convSegments convolves two single segments: the result starts at the
// sum of their start coordinates and concatenates the two segments in
// ascending slope order (serving the cheaper rate first minimizes the
// min-plus sum).
func convSegments(a, b segment) partial {
	lo, hi := a, b
	if b.slope < a.slope {
		lo, hi = b, a
	}
	p := partial{start: a.x0 + b.x0}
	y := a.y0 + b.y0
	p.pcs[0] = piece{y, lo.slope, lo.length}
	p.n = 1
	if !math.IsInf(lo.length, 1) {
		y += lo.slope * lo.length
		p.pcs[1] = piece{y, hi.slope, hi.length}
		p.n = 2
	}
	return p
}

// lowerEnvelope computes the pointwise minimum of sc.partials as a
// Curve. Candidate breakpoints are all piece boundaries plus all
// pairwise intersections of pieces; between consecutive candidates the
// envelope is a single affine piece. Coordinate lists live in the
// scratch buffers.
func lowerEnvelope(sc *convScratch) Curve {
	partials := sc.partials
	if len(partials) == 0 {
		return Zero()
	}
	sc.base = sc.base[:0]
	for i := range partials {
		p := &partials[i]
		sc.base = p.appendBreakXs(sc.base)
		if e := p.end(); !math.IsInf(e, 1) {
			sc.base = append(sc.base, e)
		}
	}
	sc.base = sortedUnique(sc.base)
	// Pairwise intersections, on top of the piece-boundary candidates.
	sc.xs = append(sc.xs[:0], sc.base...)
	for i := 0; i < len(partials); i++ {
		for j := i + 1; j < len(partials); j++ {
			sc.xs = appendPartialCrossings(sc.xs, &partials[i], &partials[j], sc.base)
		}
	}
	sc.xs = sortedUnique(sc.xs)
	xs := sc.xs

	evalMin := func(x float64) float64 {
		best := math.Inf(1)
		for i := range partials {
			if v := partials[i].eval(x); v < best {
				best = v
			}
		}
		return best
	}
	// Determine the final slope: beyond the last candidate exactly one
	// affine behaviour is minimal (all crossings are candidates), so
	// probe the argmin just after the last candidate.
	lastX := xs[len(xs)-1]
	probe := lastX + 1
	bestVal, bestSlope := math.Inf(1), 0.0
	for i := range partials {
		p := &partials[i]
		v := p.eval(probe)
		if math.IsInf(v, 1) {
			continue
		}
		s := p.slopeAt(probe)
		if v < bestVal-eps || (almostEqual(v, bestVal) && s < bestSlope) {
			bestVal, bestSlope = v, s
		}
	}
	return dropRoundingKinks(buildFrom(xs, evalMin, bestSlope))
}

// dropRoundingKinks removes the breakpoints of an envelope that lie on
// the line through their kept predecessor and their successor (the
// final slope's continuation, after the last point) to within the
// package tolerance on Y. A crossing candidate computed a few ulps off
// that line survives simplify when it is close to a neighbour: the
// slope between the two carries the rounding divided by their small
// span, which can exceed eps, while their Y values carry it undivided.
func dropRoundingKinks(c Curve) Curve {
	pts := c.pts
	out := pts[:1]
	for i := 1; i < len(pts); i++ {
		prev, p := out[len(out)-1], pts[i]
		next := Point{p.X + 1, p.Y + c.finalSlope}
		if i+1 < len(pts) {
			next = pts[i+1]
		}
		if !almostEqual(p.Y, prev.Y+(next.Y-prev.Y)*(p.X-prev.X)/(next.X-prev.X)) {
			out = append(out, p)
		}
	}
	if len(out) == len(pts) {
		return c
	}
	return MustCurve(out, c.finalSlope)
}

// appendPartialCrossings appends to out the intersections of two
// partials' affine pieces inside the intervals delimited by the base
// candidate Xs.
func appendPartialCrossings(out []float64, a, b *partial, base []float64) []float64 {
	for i := 0; i < len(base); i++ {
		x0 := base[i]
		x1 := math.Inf(1)
		if i+1 < len(base) {
			x1 = base[i+1]
		}
		va, vb := a.eval(x0), b.eval(x0)
		if math.IsInf(va, 1) || math.IsInf(vb, 1) {
			continue
		}
		sa, sb := a.slopeAt(x0), b.slopeAt(x0)
		if sa == sb {
			continue
		}
		cross := x0 + (vb-va)/(sa-sb)
		if cross > x0+eps && cross < x1-eps {
			out = append(out, cross)
		}
	}
	return out
}
