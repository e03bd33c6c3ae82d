package netcalc

import "math"

// Canonical curve form and interning.
//
// Every Curve built through NewCurve (and hence every operator result,
// all of which funnel through MustCurve/buildFrom) is already in
// canonical form: breakpoints strictly increasing in X, coincident
// points deduped, and collinear interior points merged by simplify.
// Canonical form makes structural identity meaningful — two curves
// describe the same function iff their normalized breakpoints and
// final slope are equal — so the analytic plane can compare curves by
// identity instead of by geometry.
//
// The interner assigns each distinct canonical structure a small
// integer id. Equal curves intern to the same *internedCurve, making
// them pointer-comparable; the operator cache files each result on its
// left operand's entry under the right operand's id, so a lookup hashes
// one machine word regardless of how many breakpoints the operands
// carry.

// identical reports bit-exact structural equality: same breakpoints,
// same final slope, compared by float bit pattern. It is stricter
// than Equal (which admits an epsilon): interning and cache keys use
// identical so a memoized result can never differ from the uncached
// computation by even one ulp.
func (c Curve) identical(d Curve) bool {
	cp, dp := c.normPoints(), d.normPoints()
	if len(cp) != len(dp) ||
		math.Float64bits(c.finalSlope) != math.Float64bits(d.finalSlope) {
		return false
	}
	for i := range cp {
		if math.Float64bits(cp[i].X) != math.Float64bits(dp[i].X) ||
			math.Float64bits(cp[i].Y) != math.Float64bits(dp[i].Y) {
			return false
		}
	}
	return true
}

// fingerprint hashes the curve's canonical structure, one multiply-
// xorshift round per 64-bit word of float bits. identical curves have
// identical fingerprints; the interner resolves the (vanishingly rare)
// collisions by exact structural comparison, so a collision costs a
// bucket scan, never a wrong answer.
func (c Curve) fingerprint() uint64 {
	const mul = 0x9e3779b97f4a7c15 // 2^64 / golden ratio
	pts := c.normPoints()
	h := uint64(len(pts)) * mul
	mix := func(v uint64) {
		h = (h ^ v) * mul
		h ^= h >> 32
	}
	for _, p := range pts {
		mix(math.Float64bits(p.X))
		mix(math.Float64bits(p.Y))
	}
	mix(math.Float64bits(c.finalSlope))
	return h
}

// internedCurve is one canonical curve in an interner's table. The
// pointer itself is the identity: interning equal curves returns the
// same entry.
type internedCurve struct {
	id uint64
	c  Curve
	// memo holds the cache's stored results with this curve as the
	// left operand, one table per operator, keyed by the right
	// operand's full id: a hit hashes one machine word, and no two ids
	// share a key however large they grow.
	memo [numOps]map[uint64]*cacheEntry
}

// arrayEntry is byArray's value: the entry a backing array was last
// interned as, with the length and final-slope bits that curve value
// carried. Curves are immutable, so a value sharing the array's first
// breakpoint, the length and the final slope is that same curve; a
// prefix of the array or another final slope over it is not, and takes
// the hash path.
type arrayEntry struct {
	e     *internedCurve
	n     int
	slope uint64
}

// interner deduplicates canonical curves. It is not safe for
// concurrent use: a Cache calls it under the cache's lock.
//
// A caller that keeps passing the same curve value is recognised by
// its backing array (byArray) before anything is hashed; any other
// curve goes through its fingerprint bucket and exact comparison, and
// its array joins byArray for next time.
type interner struct {
	hash    func(Curve) uint64
	buckets map[uint64][]*internedCurve
	// byArray is keyed by the first breakpoint's address alone (nil for
	// the zero curve), so a lookup hashes one word. The key pins the
	// array, so it can never be reused for another curve while the key
	// is in the table.
	byArray map[*Point]arrayEntry
	nextID  uint64 // also the cumulative intern count
	live    int
	maxLive int
}

// internerFlushThreshold bounds the live table. Curve churn beyond the
// threshold (e.g. a long-running service interning a new rate
// assignment per mode change) flushes the table; ids keep increasing,
// so cache entries keyed on flushed ids simply stop matching and age
// out of the LRU — stale ids can never alias a new curve. byArray is
// bounded by the same threshold: equal curves rebuilt on fresh arrays
// add keys without adding entries, so it is dropped on its own when
// full (the next lookups take the hash path and refill it).
const internerFlushThreshold = 1 << 16

func newInterner() *interner {
	return newInternerWithHash(Curve.fingerprint)
}

// newInternerWithHash injects the hash function; tests use a constant
// hash to force every intern through the collision path.
func newInternerWithHash(hash func(Curve) uint64) *interner {
	return &interner{
		hash:    hash,
		buckets: make(map[uint64][]*internedCurve),
		byArray: make(map[*Point]arrayEntry),
		maxLive: internerFlushThreshold,
	}
}

// intern returns the canonical entry for c, creating one if this
// structure has not been seen (or was flushed).
func (in *interner) intern(c Curve) *internedCurve {
	var first *Point
	if len(c.pts) > 0 {
		first = &c.pts[0]
	}
	slope := math.Float64bits(c.finalSlope)
	if a, ok := in.byArray[first]; ok && a.n == len(c.pts) && a.slope == slope {
		return a.e
	}
	fp := in.hash(c)
	var e *internedCurve
	for _, b := range in.buckets[fp] {
		if b.c.identical(c) {
			e = b
			break
		}
	}
	if e == nil {
		if in.live >= in.maxLive {
			in.buckets = make(map[uint64][]*internedCurve)
			in.byArray = make(map[*Point]arrayEntry)
			in.live = 0
		}
		in.nextID++
		e = &internedCurve{id: in.nextID, c: c}
		in.buckets[fp] = append(in.buckets[fp], e)
		in.live++
	}
	if len(in.byArray) >= in.maxLive {
		in.byArray = make(map[*Point]arrayEntry)
	}
	in.byArray[first] = arrayEntry{e, len(c.pts), slope}
	return e
}

// interned returns the cumulative number of distinct curves interned
// (monotone across flushes) and the current live table size.
func (in *interner) interned() (total uint64, live int) {
	return in.nextID, in.live
}
