package netcalc

import "sync"

// Memoized min-plus operator cache.
//
// Its one user is the runtime auditor (core/audit.go): every audited
// registration composes the same per-resource NoC and DRAM service
// curves through DelayBoundThrough, so the registrations of co-located
// apps repeat the same convolutions and delay bounds. A Cache memoizes
// those two operators on interned operand identities, so a repeated
// composition costs a few one-word lookups instead of an O(n*m)
// segment convolution.
//
// Correctness contract: a cache hit returns the stored result of the
// exact computation a miss would perform — operands are matched by
// bit-exact structural identity (see canon.go), so cached and uncached
// paths are bit-identical, never merely epsilon-close. Curves are
// immutable after construction, so sharing a stored result is safe.
//
// All methods are safe for concurrent use and are nil-safe: every
// method on a nil *Cache falls through to the uncached operator, so
// call sites can thread an optional cache without branching.

// opCode discriminates the memoized operators.
type opCode uint8

const (
	opConvolve opCode = iota
	opDelayBound
	numOps
)

// cacheEntry is one memoized result on the LRU list, filed in its left
// operand's memo for op under the right operand's id. Keys are
// directional — DelayBound is not commutative, and Convolve is not
// normalized either so that a hit is always the stored result of the
// identical call.
type cacheEntry struct {
	a      *internedCurve
	op     opCode
	b      uint64
	curve  Curve   // Convolve
	scalar float64 // DelayBound

	prev, next *cacheEntry
}

// CacheStats is a point-in-time snapshot of a cache's counters. Hits,
// Misses, Evictions, and InternedCurves are monotone (InternedCurves
// counts curves ever interned, so it keeps counter semantics across
// interner flushes); Entries and LiveInterned are instantaneous.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	InternedCurves          uint64
	Entries, LiveInterned   int
}

// DefaultCacheCapacity is the LRU entry bound used when NewCache is
// given a non-positive capacity.
const DefaultCacheCapacity = 4096

// Cache is an LRU-memoized view of the netcalc operators.
type Cache struct {
	mu         sync.Mutex // guards the interner and its memos too
	in         *interner
	entries    int
	head, tail *cacheEntry // head = most recently used
	cap        int

	hits, misses, evictions uint64
}

// NewCache returns an empty cache bounded to capacity entries
// (DefaultCacheCapacity if capacity <= 0). capacity is the LRU
// eviction bound only: the memos grow with use and are not pre-sized
// to it.
func NewCache(capacity int) *Cache {
	return newCacheWithInterner(capacity, newInterner())
}

func newCacheWithInterner(capacity int, in *interner) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{in: in, cap: capacity}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	total, live := c.in.interned()
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		InternedCurves: total,
		Entries:        c.entries,
		LiveInterned:   live,
	}
}

// lookup interns f and g and finds the stored result of op on them,
// promoting it to most-recently-used, under one lock. On a miss (e nil)
// the caller computes from the interned operands and inserts.
func (c *Cache) lookup(op opCode, f, g Curve) (fi, gi *internedCurve, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fi, gi = c.in.intern(f), c.in.intern(g)
	if e = fi.memo[op][gi.id]; e == nil {
		c.misses++
		return fi, gi, nil
	}
	c.hits++
	c.moveToFront(e)
	return fi, gi, e
}

// insert files e in its left operand's memo, evicting the least-
// recently-used entry when full. If another goroutine raced the same
// miss, the first stored entry wins (both computed bit-identical
// results).
func (c *Cache) insert(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	memo := e.a.memo[e.op]
	if _, exists := memo[e.b]; exists {
		return
	}
	if c.entries >= c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(lru.a.memo[lru.op], lru.b)
		c.entries--
		c.evictions++
	}
	if memo == nil {
		memo = make(map[uint64]*cacheEntry)
		e.a.memo[e.op] = memo
	}
	memo[e.b] = e
	c.entries++
	c.pushFront(e)
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Convolve is the memoized min-plus convolution f (*) g.
func (c *Cache) Convolve(f, g Curve) Curve {
	if c == nil {
		return Convolve(f, g)
	}
	fi, gi, e := c.lookup(opConvolve, f, g)
	if e != nil {
		return e.curve
	}
	out := Convolve(fi.c, gi.c)
	c.insert(&cacheEntry{a: fi, op: opConvolve, b: gi.id, curve: out})
	return out
}

// DelayBound is the memoized horizontal deviation h(alpha, beta).
func (c *Cache) DelayBound(alpha, beta Curve) float64 {
	if c == nil {
		return DelayBound(alpha, beta)
	}
	ai, bi, e := c.lookup(opDelayBound, alpha, beta)
	if e != nil {
		return e.scalar
	}
	out := DelayBound(ai.c, bi.c)
	c.insert(&cacheEntry{a: ai, op: opDelayBound, b: bi.id, scalar: out})
	return out
}

// ConvolveAll composes a chain of service curves through the cache,
// convolving cheapest (fewest breakpoints) operands first: the
// intermediate envelopes stay small, and identical sub-chains hit the
// memo. The order is deterministic (stable on equal breakpoint
// counts) and — convolution being associative and commutative —
// produces the same curve as the left fold; conv_order tests pin that
// the output is bit-identical on the repository's curve shapes.
func (c *Cache) ConvolveAll(curves ...Curve) Curve {
	if len(curves) == 0 {
		return Zero()
	}
	var buf [4]int
	order := convOrder(buf[:0], curves)
	out := curves[order[0]]
	for _, i := range order[1:] {
		out = c.Convolve(out, curves[i])
	}
	return out
}

// DelayBoundThrough composes a tandem of per-resource service curves
// through the cache and returns the delay bound of a flow with
// arrival curve alpha across the whole path. Semantics match the
// package-level DelayBoundThrough.
func (c *Cache) DelayBoundThrough(alpha Curve, betas ...Curve) float64 {
	if len(betas) == 0 {
		return 0
	}
	return c.DelayBound(alpha, c.ConvolveAll(betas...))
}

// convOrder appends to dst the operand order for ConvolveAll: indices
// sorted by ascending breakpoint count, stable by position, so the
// cheapest curves convolve first and equal-size operands keep their
// caller order. An insertion sort: chains are a handful of operands,
// and a caller-owned dst keeps the audit path's three-operand tandem
// off the heap.
func convOrder(dst []int, curves []Curve) []int {
	for i, c := range curves {
		n := len(c.normPoints())
		j := len(dst)
		dst = append(dst, i)
		for ; j > 0 && len(curves[dst[j-1]].normPoints()) > n; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	return dst
}
