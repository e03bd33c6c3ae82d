package cache

import (
	"fmt"
	"testing"
)

// eagerCache is the reference model for lazily allocated sets: every
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

// TestNewAllocatesNoSets pins the lazy layout: New builds only the
// set index, a miss the policy denies allocates nothing, and a miss
// that may install allocates exactly the one set it lands in.
func TestNewAllocatesNoSets(t *testing.T) {
	cfg := Config{Sets: 2048, Ways: 16, LineSize: 64, Policy: NewWayPartition(map[Owner]uint64{1: 0, 2: 1 << 16})}
	c := mustCache(t, cfg)
	allocated := func() (n int) {
		for _, s := range c.sets {
			if s != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("New allocated %d sets, want 0", n)
	}
	for _, o := range []Owner{1, 2} { // no way, and only a way beyond Ways
		if r := c.Access(o, addrFor(c, 5, 1), false); r.Allocated || allocated() != 0 {
			t.Fatalf("owner %d: denied miss = %+v with %d sets allocated, want a bypass allocating none", o, r, allocated())
		}
	}
	c.Access(0, addrFor(c, 5, 1), false)
	c.Access(0, addrFor(c, 5, 1), true)
	if n := allocated(); n != 1 || len(c.sets[5]) != cfg.Ways {
		t.Fatalf("after one install: %d sets allocated (set 5 has %d ways), want set 5 alone", n, len(c.sets[5]))
	}
}
