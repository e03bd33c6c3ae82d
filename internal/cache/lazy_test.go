package cache

import (
	"fmt"
	"testing"
)

// eagerCache is the reference model for lazily installed sets: every
// set is built up front, and Access and Flush follow the same LRU and
// accounting rules. Set index and tag come from the cache under test.
type eagerCache struct {
	sets      [][]line
	clock     uint64
	stats     map[Owner]*Stats
	occupancy map[Owner]int
	allowed   func(Owner, int) uint64
}

func newEager(cfg Config, allowed func(Owner, int) uint64) *eagerCache {
	e := &eagerCache{sets: make([][]line, cfg.Sets), stats: map[Owner]*Stats{},
		occupancy: map[Owner]int{}, allowed: allowed}
	for i := range e.sets {
		e.sets[i] = make([]line, cfg.Ways)
	}
	return e
}

func (e *eagerCache) st(o Owner) *Stats {
	if e.stats[o] == nil {
		e.stats[o] = &Stats{}
	}
	return e.stats[o]
}

func (e *eagerCache) access(owner Owner, set int, tag uint64, write bool) Result {
	e.clock++
	lines, st := e.sets[set], e.st(owner)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			st.Hits++
			lines[i].lastUse = e.clock
			lines[i].dirty = lines[i].dirty || write
			return Result{Hit: true}
		}
	}
	st.Misses++
	allowed, victim, victimUse := e.allowed(owner, set), -1, ^uint64(0)
	for i := range lines {
		if allowed&(1<<uint(i)) == 0 {
			continue
		}
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lastUse < victimUse {
			victim, victimUse = i, lines[i].lastUse
		}
	}
	if victim < 0 {
		return Result{}
	}
	res, v := Result{Allocated: true}, &lines[victim]
	if v.valid {
		res.Evicted, res.EvictedOwner, res.EvictedDirty = true, v.owner, v.dirty
		e.occupancy[v.owner]--
		if v.dirty {
			e.st(v.owner).Writebacks++
		}
		if v.owner != owner {
			st.EvictionsOfOthers++
			e.st(v.owner).EvictedByOthers++
		}
	}
	*v = line{valid: true, tag: tag, owner: owner, dirty: write, lastUse: e.clock}
	e.occupancy[owner]++
	return res
}

func (e *eagerCache) flush(owner Owner) int {
	n := 0
	for _, set := range e.sets {
		for i := range set {
			if set[i].valid && set[i].owner == owner {
				if set[i].dirty {
					e.st(owner).Writebacks++
				}
				set[i].valid = false
				e.occupancy[owner]--
				n++
			}
		}
	}
	return n
}

// TestLazySetsMatchEagerModel drives the cache and the eager reference
// with the same random traces under every policy shape — open, way
// masks (zero masks and bits beyond Ways included), MPAM-style
// capacity limits, and page coloring — and requires identical
// results, stats, occupancy and flush counts at every step.
func TestLazySetsMatchEagerModel(t *testing.T) {
	const owners = 4
	for _, ways := range []int{1, 2, 3, 8, 16, 33, 63, 64} {
		for _, sets := range []int{1, 4, 32} {
			for _, shape := range []string{"open", "ways", "capacity", "coloring"} {
				t.Run(fmt.Sprintf("%s/%dx%d", shape, sets, ways), func(t *testing.T) {
					rnd := newRand(uint64(ways*1000 + sets*10 + len(shape)))
					cfg := Config{Sets: sets, Ways: ways, LineSize: 64}
					masks := map[Owner]uint64{}
					for o := Owner(0); o < owners; o++ {
						masks[o] = rnd() >> (rnd() % 64)
					}
					masks[1] = 0                                 // may never allocate
					masks[2] = ^uint64(0) << uint(min(ways, 63)) // beyond Ways only, bar Ways 64
					limits := map[Owner]int{0: 1 + int(rnd()%uint64(sets*ways)), 3: 2}
					var e *eagerCache
					var col *Coloring
					switch shape {
					case "open":
						e = newEager(cfg, OpenPolicy{}.AllowedWays)
					case "ways":
						cfg.Policy = &WayPartition{Masks: masks, Default: ^uint64(0)}
						e = newEager(cfg, cfg.Policy.AllowedWays)
					case "capacity":
						inner := &WayPartition{Masks: masks, Default: ^uint64(0)}
						cfg.Policy = &MaxCapacityPolicy{Inner: inner, Limits: limits}
						e = newEager(cfg, func(o Owner, set int) uint64 {
							if l, ok := limits[o]; ok && e.occupancy[o] >= l {
								return 0
							}
							return inner.AllowedWays(o, set)
						})
					case "coloring":
						cfg.Sets = sets * 16 // 4 colors per original set, 256 B pages
						var err error
						if col, err = NewColoring(cfg, 256); err != nil {
							t.Fatal(err)
						}
						for o := Owner(0); o < owners; o++ {
							if err := col.Assign(o, []int{int(o) % col.NumColors(), int(rnd() % uint64(col.NumColors()))}); err != nil {
								t.Fatal(err)
							}
						}
						e = newEager(cfg, OpenPolicy{}.AllowedWays)
					}
					c := mustCache(t, cfg)
					if p, ok := cfg.Policy.(*MaxCapacityPolicy); ok {
						p.BindCache(c)
					}
					for step := 0; step < 4000; step++ {
						owner := Owner(rnd() % owners)
						if rnd()%200 == 0 {
							if got, want := c.Flush(owner), e.flush(owner); got != want {
								t.Fatalf("step %d: Flush(%d) = %d, eager %d", step, owner, got, want)
							}
							continue
						}
						addr := (rnd() % uint64(cfg.Sets*ways*3)) * 64
						if col != nil {
							addr = col.Translate(owner, addr)
						}
						write := rnd()%3 == 0
						got := c.Access(owner, addr, write)
						want := e.access(owner, c.SetIndex(addr), c.tagOf(addr), write)
						if got != want {
							t.Fatalf("step %d: Access(%d, %#x) = %+v, eager %+v", step, owner, addr, got, want)
						}
						for o := Owner(0); o < owners; o++ {
							if c.Occupancy(o) != e.occupancy[o] {
								t.Fatalf("step %d: Occupancy(%d) = %d, eager %d", step, o, c.Occupancy(o), e.occupancy[o])
							}
						}
					}
					for o := Owner(0); o < owners; o++ {
						if got, want := c.Stats(o), *e.st(o); got != want {
							t.Errorf("Stats(%d) = %+v, eager %+v", o, got, want)
						}
					}
				})
			}
		}
	}
}

// installed counts the sets holding a slot.
func installed(c *Cache) (n int) {
	for _, s := range c.sets {
		if s != 0 {
			n++
		}
	}
	return n
}

// TestNewAllocatesNoSets pins the lazy layout: New builds only the
// set index and no line storage, a miss the policy denies installs
// nothing, and a miss that may install gives exactly the one set it
// lands in a slot of Ways lines.
func TestNewAllocatesNoSets(t *testing.T) {
	cfg := Config{Sets: 2048, Ways: 16, LineSize: 64, Policy: NewWayPartition(map[Owner]uint64{1: 0, 2: 1 << 16})}
	c := mustCache(t, cfg)
	if n := installed(c); n != 0 || len(c.blocks) != 0 {
		t.Fatalf("New installed %d sets in %d blocks, want none", n, len(c.blocks))
	}
	for _, o := range []Owner{1, 2} { // no way, and only a way beyond Ways
		if r := c.Access(o, addrFor(c, 5, 1), false); r.Allocated || installed(c) != 0 || len(c.blocks) != 0 {
			t.Fatalf("owner %d: denied miss = %+v with %d sets installed, want a bypass installing none", o, r, installed(c))
		}
	}
	c.Access(0, addrFor(c, 5, 1), false)
	c.Access(0, addrFor(c, 5, 1), true)
	if n := installed(c); n != 1 || c.sets[5] != 1 || len(c.slot(0)) != cfg.Ways || len(c.blocks) != 1 {
		t.Fatalf("after one install: %d sets installed (set 5 holds slot %d), %d blocks; want set 5 alone in slot 1 of one block",
			n, c.sets[5], len(c.blocks))
	}
}

// TestInstallNeverMovesInstalledSets installs sets across several
// blocks, in an order unrelated to their index, and requires every
// installed set's lines to stay at the address they were installed at
// and keep their contents: a new block is appended, never copied over
// the old ones.
func TestInstallNeverMovesInstalledSets(t *testing.T) {
	cfg := Config{Sets: 256, Ways: 4, LineSize: 64}
	c := mustCache(t, cfg)
	rnd := newRand(17)
	at := map[int]*line{}
	for len(at) < 5*blockSets+3 {
		set := int(rnd() % uint64(cfg.Sets))
		c.Access(Owner(set%3), addrFor(c, set, uint64(set)), false)
		if _, ok := at[set]; !ok {
			at[set] = &c.slot(int(c.sets[set] - 1))[0]
		}
		for s, first := range at {
			if got := &c.slot(int(c.sets[s] - 1))[0]; got != first {
				t.Fatalf("set %d moved after %d installs", s, len(at))
			}
		}
	}
	if want := (len(at) + blockSets - 1) / blockSets; len(c.blocks) != want {
		t.Fatalf("%d installed sets in %d blocks, want %d", len(at), len(c.blocks), want)
	}
	for set := range at {
		if r := c.Access(Owner(set%3), addrFor(c, set, uint64(set)), false); !r.Hit {
			t.Fatalf("set %d lost its line after later installs", set)
		}
	}
}

// TestFlushWalksOnlyInstalledSets builds a cache with a million sets,
// installs a few, and drops the set index before flushing: Flush must
// still find every line, so it reads only the line storage, whose size
// is the installed sets rounded up to one block.
func TestFlushWalksOnlyInstalledSets(t *testing.T) {
	cfg := Config{Sets: 1 << 20, Ways: 8, LineSize: 64}
	c := mustCache(t, cfg)
	for i, set := range []int{3, 1 << 19, 77, 1<<20 - 1, 512} {
		c.Access(Owner(i%2), addrFor(c, set, 1), i%3 == 0)
		c.Access(Owner(i%2), addrFor(c, set, 2), false)
	}
	if len(c.blocks) != 1 {
		t.Fatalf("5 installed sets in %d blocks, want 1", len(c.blocks))
	}
	c.sets = nil
	if n0, n1 := c.Flush(0), c.Flush(1); n0 != 6 || n1 != 4 {
		t.Fatalf("Flush = %d, %d lines; want 6, 4", n0, n1)
	}
	for o := Owner(0); o < 2; o++ {
		if occ, wb := c.Occupancy(o), c.Stats(o).Writebacks; occ != 0 || wb != 1 {
			t.Fatalf("owner %d after Flush: occupancy %d and %d writebacks; want 0 and 1", o, occ, wb)
		}
	}
}

// BenchmarkAccess drives a cache of the big mesh's L3 shape (2048 sets
// of 16 ways) with a random stream over three times its capacity, so
// both the hit and the install-and-evict paths go through the set
// index.
//
//	go test ./internal/cache/ -run '^$' -bench Access -benchmem
func BenchmarkAccess(b *testing.B) {
	cfg := Config{Sets: 2048, Ways: 16, LineSize: 64}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rnd := newRand(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = rnd() % uint64(3*cfg.Sets*cfg.Ways) * 64
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Owner(i&3), addrs[i&4095], i%3 == 0)
	}
}
