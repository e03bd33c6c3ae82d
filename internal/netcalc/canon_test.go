package netcalc

import (
	"math/rand"
	"testing"
)

// randomCurve draws a canonical piecewise-linear curve. Coordinates are
// drawn on a coarse grid so independently generated curves collide with
// useful probability and re-generated equal curves are bit-equal.
func randomCurve(rnd *rand.Rand) Curve {
	n := 1 + rnd.Intn(6)
	pts := make([]Point, 0, n)
	x, y := 0.0, float64(rnd.Intn(4))
	for i := 0; i < n; i++ {
		pts = append(pts, Point{x, y})
		x += 0.25 * float64(1+rnd.Intn(16))
		y += 0.25 * float64(rnd.Intn(16))
	}
	finalSlope := 0.25 * float64(rnd.Intn(8))
	c, err := NewCurve(pts, finalSlope)
	if err != nil {
		panic(err)
	}
	return c
}

// TestIdenticalProperties pins the identity relation the interner and
// cache keys rest on: reflexive, symmetric, bit-strict (an ulp of
// difference separates curves that Equal would merge), and implied by
// construction from equal inputs.
func TestIdenticalProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randomCurve(rnd), randomCurve(rnd)
		if !a.identical(a) || !b.identical(b) {
			t.Fatal("identical not reflexive")
		}
		if a.identical(b) != b.identical(a) {
			t.Fatal("identical not symmetric")
		}
		if a.identical(b) && a.fingerprint() != b.fingerprint() {
			t.Fatal("identical curves with different fingerprints")
		}
		// Rebuilding from the same points must yield an identical curve.
		c := MustCurve(a.Points(), a.FinalSlope())
		if !a.identical(c) {
			t.Fatalf("rebuild not identical: %v vs %v", a, c)
		}
	}
	// One-ulp perturbation must break identity even though Equal holds.
	base := RateLatency(0.5, 100)
	pts := base.Points()
	pts[len(pts)-1].Y += pts[len(pts)-1].Y * 1e-16
	bumped := MustCurve(pts, base.FinalSlope())
	if base.identical(bumped) && base.Points()[len(pts)-1] != bumped.Points()[len(pts)-1] {
		t.Fatal("identical ignored a bit-level difference")
	}
	if !base.Equal(bumped) {
		t.Fatal("epsilon Equal should still hold for an ulp perturbation")
	}
}

// TestInternPointerEquality checks the core interning guarantee: equal
// structures intern to the same entry (pointer-comparable identity),
// distinct structures to distinct ids.
func TestInternPointerEquality(t *testing.T) {
	in := newInterner()
	rnd := rand.New(rand.NewSource(11))
	byID := make(map[uint64]Curve)
	for i := 0; i < 2000; i++ {
		c := randomCurve(rnd)
		e := in.intern(c)
		e2 := in.intern(MustCurve(c.Points(), c.FinalSlope()))
		if e != e2 {
			t.Fatalf("equal curves interned to distinct entries: %v", c)
		}
		if prev, seen := byID[e.id]; seen && !prev.identical(c) {
			t.Fatalf("id %d reused for a different structure", e.id)
		}
		byID[e.id] = c
	}
	total, live := in.interned()
	if total == 0 || live == 0 || int(total) != live {
		t.Fatalf("interned() = (%d, %d); want equal non-zero counts before any flush", total, live)
	}
}

// TestInternCollisions forces every intern through the collision path
// with a constant hash: correctness must not depend on fingerprint
// quality, only speed does.
func TestInternCollisions(t *testing.T) {
	in := newInternerWithHash(func(Curve) uint64 { return 42 })
	rnd := rand.New(rand.NewSource(13))
	seen := make(map[uint64]Curve)
	for i := 0; i < 300; i++ {
		c := randomCurve(rnd)
		e := in.intern(c)
		if prev, ok := seen[e.id]; ok {
			if !prev.identical(c) {
				t.Fatalf("collision bucket returned wrong curve: %v vs %v", prev, c)
			}
		} else {
			seen[e.id] = c
		}
		if again := in.intern(c); again != e {
			t.Fatal("re-intern under constant hash lost identity")
		}
	}
}

// TestInternFlush checks the churn guard: crossing the live threshold
// flushes the table but keeps ids monotone, so an entry interned after
// the flush never aliases a pre-flush id.
func TestInternFlush(t *testing.T) {
	in := newInterner()
	in.maxLive = 8
	var maxID uint64
	for i := 0; i < 50; i++ {
		c := TokenBucket(float64(i+1), 1)
		e := in.intern(c)
		if e.id <= maxID {
			t.Fatalf("id regressed across flush: %d after %d", e.id, maxID)
		}
		maxID = e.id
	}
	total, live := in.interned()
	if total != 50 {
		t.Fatalf("cumulative count = %d, want 50", total)
	}
	if live > in.maxLive {
		t.Fatalf("live = %d exceeds threshold %d", live, in.maxLive)
	}
}

// TestInternByBackingArray checks the interner's array index: a curve
// value seen before is recognised without hashing, an equal curve on a
// fresh array still finds its entry through the hash, a curve over a
// prefix of the same array or with another final slope is a different
// curve, and a flush leaves no stale array key behind.
func TestInternByBackingArray(t *testing.T) {
	hashes := 0
	in := newInternerWithHash(func(c Curve) uint64 {
		hashes++
		return c.fingerprint()
	})
	c := MustCurve([]Point{{0, 0}, {10, 0}, {20, 5}, {40, 10}}, 1)
	e := in.intern(c)
	if again := in.intern(c); again != e || hashes != 1 {
		t.Fatalf("re-interning the same value: entry %p vs %p after %d hashes, want the same entry after 1", again, e, hashes)
	}
	rebuilt := MustCurve(c.Points(), c.FinalSlope())
	if got := in.intern(rebuilt); got != e || hashes != 2 {
		t.Fatalf("equal curve on a fresh array: entry %p vs %p after %d hashes, want the same entry after 2", got, e, hashes)
	}
	if got := in.intern(rebuilt); got != e || hashes != 2 {
		t.Fatalf("the fresh array was not indexed: %d hashes, want 2", hashes)
	}
	// The array index is keyed by the first breakpoint's address alone:
	// a prefix sub-slice and another final slope over c's array share
	// c's key, and the entry's length and slope bits must tell them
	// apart, both ways round.
	variants := []struct {
		name string
		d    Curve
	}{
		{"prefix", Curve{pts: c.pts[:2], finalSlope: c.finalSlope}},
		{"final-slope", Curve{pts: c.pts, finalSlope: 2}},
	}
	entries := map[string]*internedCurve{}
	for _, v := range variants {
		before := hashes
		got := in.intern(v.d)
		if got == e || got.id == e.id || !got.c.identical(v.d) {
			t.Errorf("%s curve over the same array aliased the original entry", v.name)
		}
		if hashes != before+1 {
			t.Errorf("%s curve over the same array skipped the hash path", v.name)
		}
		entries[v.name] = got
		if again := in.intern(c); again != e {
			t.Errorf("after the %s curve, the original value interned to entry %p, want %p", v.name, again, e)
		}
	}
	for _, v := range variants {
		if got := in.intern(v.d); got != entries[v.name] {
			t.Errorf("re-interning the %s curve: entry %p, want %p", v.name, got, entries[v.name])
		}
	}
	if len(in.byArray) != 2 {
		t.Errorf("array index holds %d keys after curves over two arrays, want 2 (one per array)", len(in.byArray))
	}

	in.maxLive = 4
	var before []Curve // interned since the last flush, then flushed
	for i := 0; ; i++ {
		if i == in.maxLive {
			t.Fatal("no flush after maxLive new curves")
		}
		live := in.live
		d := TokenBucket(float64(i+1), 1)
		in.intern(d)
		if in.live < live {
			break
		}
		before = append(before, d)
	}
	for _, d := range append(before, c) {
		n := hashes
		if got := in.intern(d); got.id <= e.id || hashes != n+1 {
			t.Fatalf("after a flush %v matched a stale array key (id %d, %d new hashes)", d, got.id, hashes-n)
		}
	}
}
