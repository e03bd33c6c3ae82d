package netcalc

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func bitEqualCurves(a, b Curve) bool { return a.identical(b) }

func bitEqualFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkOpsAgree runs both operators through the cache and the
// uncached package functions and requires bit-identical results —
// the memoization correctness contract.
func checkOpsAgree(t *testing.T, c *Cache, f, g Curve) {
	t.Helper()
	if got, want := c.Convolve(f, g), Convolve(f, g); !bitEqualCurves(got, want) {
		t.Fatalf("Convolve diverges\n  f=%v\n  g=%v\n  got %v\n want %v", f, g, got, want)
	}
	if got, want := c.DelayBound(f, g), DelayBound(f, g); !bitEqualFloat(got, want) {
		t.Fatalf("DelayBound diverges: got %v want %v", got, want)
	}
}

// TestCacheMatchesUncachedRandom is the central property test:
// randomized fixed-seed curve pairs through cached and uncached
// operators agree bit-exactly, on both cold and warm (hit) paths.
func TestCacheMatchesUncachedRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	c := NewCache(0)
	curves := make([]Curve, 40)
	for i := range curves {
		curves[i] = randomCurve(rnd)
	}
	for i := 0; i < 1500; i++ {
		f := curves[rnd.Intn(len(curves))]
		g := curves[rnd.Intn(len(curves))]
		checkOpsAgree(t, c, f, g)
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Error("drawing pairs from a small pool produced no cache hits")
	}
	if st.InternedCurves == 0 || st.Entries == 0 {
		t.Errorf("stats look dead: %+v", st)
	}
}

// TestCacheEviction forces LRU churn through a tiny cache and checks
// results stay correct when entries are recomputed after eviction.
func TestCacheEviction(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	c := NewCache(4)
	curves := make([]Curve, 12)
	for i := range curves {
		curves[i] = randomCurve(rnd)
	}
	for round := 0; round < 3; round++ {
		for i := range curves {
			for j := range curves {
				checkOpsAgree(t, c, curves[i], curves[j])
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("capacity-4 cache under 12x12 op churn never evicted")
	}
	if st.Entries > 4 {
		t.Fatalf("entries = %d exceeds capacity 4", st.Entries)
	}
}

// TestCacheCollidingInterner runs the property check with a constant
// interner hash, so every operand lookup exercises the collision
// bucket scan.
func TestCacheCollidingInterner(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	c := newCacheWithInterner(64, newInternerWithHash(func(Curve) uint64 { return 0 }))
	for i := 0; i < 400; i++ {
		checkOpsAgree(t, c, randomCurve(rnd), randomCurve(rnd))
	}
}

// TestCacheDirectionalKeys guards against commutative key folding:
// DelayBound(f, g) and DelayBound(g, f) are different questions and
// must not share an entry.
func TestCacheDirectionalKeys(t *testing.T) {
	c := NewCache(0)
	alpha := TokenBucket(64, 0.25)
	beta := RateLatency(0.5, 100)
	d1 := c.DelayBound(alpha, beta)
	d2 := c.DelayBound(beta, alpha)
	if bitEqualFloat(d1, d2) {
		t.Skip("asymmetric pair happened to produce equal bounds; pick different curves")
	}
	if got := c.DelayBound(alpha, beta); !bitEqualFloat(got, d1) {
		t.Fatalf("directional key collision: %v vs %v", got, d1)
	}
}

// TestMemoKeysDoNotAliasPastIDWidths pins that a memo key keeps both
// operands' full ids: interned ids grow without bound across flushes,
// so after ids pass 2^31 and 2^32 a curve whose id equals a low id
// modulo 2^31 or 2^32 must still miss the low curve's entries. The
// interner is seeded so the second pool's ids straddle the boundary,
// its last id aliasing the first pool's first id under truncation.
func TestMemoKeysDoNotAliasPastIDWidths(t *testing.T) {
	for _, width := range []uint{31, 32} {
		c := NewCache(0)
		low := []Curve{TokenBucket(64, 0.25), RateLatency(0.5, 100), RateLatency(0.25, 40)}
		high := []Curve{TokenBucket(32, 0.5), RateLatency(1, 10), RateLatency(0.125, 400)}
		for i, f := range low {
			if id := c.in.intern(f).id; id != uint64(i+1) {
				t.Fatalf("width %d: low curve %d interned as id %d", width, i, id)
			}
		}
		c.in.nextID = 1<<width - 2
		for i, f := range high {
			if id, want := c.in.intern(f).id, uint64(1<<width-1+i); id != want {
				t.Fatalf("width %d: high curve %d interned as id %#x, want %#x", width, i, id, want)
			}
		}
		all := append(low, high...)
		for pass := 0; pass < 2; pass++ {
			for _, f := range all {
				for _, g := range all {
					checkOpsAgree(t, c, f, g)
				}
			}
			pairs := uint64(2 * len(all) * len(all))
			if st := c.Stats(); st.Misses != pairs || st.Hits != uint64(pass)*pairs {
				t.Fatalf("width %d pass %d: %d hits, %d misses; want %d, %d (every first call a miss)",
					width, pass, st.Hits, st.Misses, uint64(pass)*pairs, pairs)
			}
		}
	}
}

// TestCacheNilReceiver checks the nil-safe contract every call site
// relies on: all methods on a nil *Cache behave like the uncached
// package functions.
func TestCacheNilReceiver(t *testing.T) {
	var c *Cache
	f := TokenBucket(32, 0.25)
	g := RateLatency(0.5, 50)
	checkOpsAgree(t, c, f, g)
	if got, want := c.ConvolveAll(g, g, f), ConvolveAll(g, g, f); !bitEqualCurves(got, want) {
		t.Fatal("nil-cache ConvolveAll diverges")
	}
	if got, want := c.DelayBoundThrough(f, g, g), DelayBoundThrough(f, g, g); !bitEqualFloat(got, want) {
		t.Fatal("nil-cache DelayBoundThrough diverges")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero value", st)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run
// under -race this checks the locking discipline, and every result is
// still bit-identical to the uncached computation.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(32) // small: concurrent evictions too
	base := make([]Curve, 16)
	seedRnd := rand.New(rand.NewSource(9))
	for i := range base {
		base[i] = randomCurve(seedRnd)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 300; i++ {
				f := base[rnd.Intn(len(base))]
				g := base[rnd.Intn(len(base))]
				if got, want := c.Convolve(f, g), Convolve(f, g); !bitEqualCurves(got, want) {
					errs <- "Convolve diverged under concurrency"
					return
				}
				if got, want := c.DelayBound(f, g), DelayBound(f, g); !bitEqualFloat(got, want) {
					errs <- "DelayBound diverged under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
