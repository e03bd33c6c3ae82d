// Package cache models a set-associative cache with pluggable
// partitioning policies, supporting the paper's Section II (software
// cache coloring) and Section III (DSU way-partitioning, MPAM portion
// partitioning) mechanisms on one substrate.
//
// The cache is a timing-free hit/miss and occupancy model: interference
// between owners manifests as evictions and miss-rate inflation, which
// the platform layer converts into memory traffic toward the DRAM
// model. Replacement is LRU within the ways the policy allows the
// requesting owner to allocate into; lookups always search all ways
// (partitioning restricts allocation, not visibility, matching the DSU
// and MPAM semantics).
package cache

import (
	"fmt"
)

// Owner identifies the agent an access is attributed to: a scheme ID
// (DSU), a PARTID (MPAM), or a process (coloring).
type Owner int

// AllocPolicy restricts which ways an owner may allocate into.
type AllocPolicy interface {
	// AllowedWays returns a bitmask of ways (bit i = way i) that owner
	// may victimize in the given set. A zero mask means the owner may
	// not allocate at all (accesses still hit on resident lines).
	AllowedWays(owner Owner, set int) uint64
}

// OpenPolicy allows every owner to allocate anywhere (an unmanaged
// COTS cache).
type OpenPolicy struct{}

// AllowedWays implements AllocPolicy.
func (OpenPolicy) AllowedWays(Owner, int) uint64 { return ^uint64(0) }

// Config sizes a cache.
type Config struct {
	Sets     int // number of sets, power of two
	Ways     int // associativity, <= 64
	LineSize int // bytes, power of two
	Policy   AllocPolicy
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 || c.Sets > maxSets {
		return fmt.Errorf("cache: Sets must be a power of two in 1..%d, got %d", maxSets, c.Sets)
	}
	if c.Ways <= 0 || c.Ways > 64 {
		return fmt.Errorf("cache: Ways must be in 1..64, got %d", c.Ways)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: LineSize must be a positive power of two, got %d", c.LineSize)
	}
	return nil
}

// maxSets keeps every set's slot number inside the int32 set index.
const maxSets = 1 << 30

// line is one cache line's metadata.
type line struct {
	tag     uint64
	owner   Owner
	lastUse uint64 // LRU stamp
	valid   bool
	dirty   bool
}

// blockSets is how many installed sets share one block of line storage.
const blockSets = 16

// Result reports the outcome of one access.
type Result struct {
	Hit bool
	// Allocated reports whether the line was installed (misses only;
	// false when the policy denied allocation).
	Allocated bool
	// EvictedOwner/EvictedDirty describe the victim, when one existed.
	Evicted      bool
	EvictedOwner Owner
	EvictedDirty bool
}

// Stats accumulates per-owner counters.
type Stats struct {
	Hits, Misses uint64
	// EvictionsBy counts lines this owner evicted that belonged to
	// another owner — the direct interference metric of Section II.
	EvictionsOfOthers uint64
	// EvictedByOthers counts this owner's lines evicted by others.
	EvictedByOthers uint64
	Writebacks      uint64
}

// MissRate returns misses / (hits + misses), or 0 without accesses.
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Cache is a set-associative cache with partitioned allocation.
// Not safe for concurrent use (single-threaded simulation kernel).
type Cache struct {
	cfg Config
	// sets[i] is 0 until set i first installs a line, then 1 + the
	// set's slot. Slots are numbered in install order and stored
	// blockSets to a block, so a cache costs a pointer-free 4 bytes per
	// set plus storage for the sets its workload touches, and a block
	// is never copied or moved once allocated.
	sets   []int32
	blocks [][]line
	slots  int // slots handed out
	clock  uint64

	stats map[Owner]*Stats
	// occupancy[owner] counts resident lines per owner.
	occupancy map[Owner]int

	setShift uint
	setMask  uint64
	tagShift uint // setShift + log2(Sets)

	tel *telemetryState
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = OpenPolicy{}
	}
	c := &Cache{
		cfg:       cfg,
		sets:      make([]int32, cfg.Sets),
		stats:     make(map[Owner]*Stats),
		occupancy: make(map[Owner]int),
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.setShift++
	}
	c.setMask = uint64(cfg.Sets - 1)
	c.tagShift = c.setShift + uint(log2(cfg.Sets))
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

// tagOf returns the tag bits of an address.
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// slot returns the ways of installed slot i.
func (c *Cache) slot(i int) []line {
	w := uint(c.cfg.Ways)
	off := uint(i) % blockSets * w
	return c.blocks[uint(i)/blockSets][off : off+w : off+w]
}

// install gives set its slot, allocating a new block when the last is
// full.
func (c *Cache) install(set int) []line {
	i := c.slots
	if i%blockSets == 0 {
		c.blocks = append(c.blocks, make([]line, blockSets*c.cfg.Ways))
	}
	c.slots++
	c.sets[set] = int32(i + 1)
	return c.slot(i)
}

// Access performs one read or write by owner at addr. On a miss the
// line is installed into an allowed way (LRU victim among them); if
// the policy allows no ways, the access bypasses the cache. A set
// that has never installed a line has no slot and reads as
// all-invalid: its first install takes one and the lowest allowed
// way, the first invalid way an installed set would pick.
func (c *Cache) Access(owner Owner, addr uint64, write bool) Result {
	c.clock++
	set := c.SetIndex(addr)
	tag := c.tagOf(addr)
	var lines []line
	if s := c.sets[set]; s != 0 {
		lines = c.slot(int(s - 1))
	}
	st := c.ownerStats(owner)

	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			st.Hits++
			if c.tel != nil {
				c.tel.cHits.Inc()
			}
			lines[i].lastUse = c.clock
			if write {
				lines[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	st.Misses++
	if c.tel != nil {
		c.tel.cMisses.Inc()
	}

	allowed := c.cfg.Policy.AllowedWays(owner, set)
	if lines == nil {
		if c.cfg.Ways < 64 {
			allowed &= 1<<uint(c.cfg.Ways) - 1
		}
		if allowed == 0 {
			return Result{} // allocation denied: bypass
		}
		lines = c.install(set)
	}
	victim := -1
	var victimUse uint64 = ^uint64(0)
	for i := range lines {
		if allowed&(1<<uint(i)) == 0 {
			continue
		}
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lastUse < victimUse {
			victim = i
			victimUse = lines[i].lastUse
		}
	}
	if victim < 0 {
		return Result{} // allocation denied: bypass
	}

	res := Result{Allocated: true}
	v := &lines[victim]
	if v.valid {
		res.Evicted = true
		res.EvictedOwner = v.owner
		res.EvictedDirty = v.dirty
		c.occupancy[v.owner]--
		if v.dirty {
			c.ownerStats(v.owner).Writebacks++
		}
		if v.owner != owner {
			st.EvictionsOfOthers++
			c.ownerStats(v.owner).EvictedByOthers++
			if c.tel != nil {
				c.tel.cCrossEvic.Inc()
			}
		}
	}
	*v = line{valid: true, tag: tag, owner: owner, dirty: write, lastUse: c.clock}
	c.occupancy[owner]++
	return res
}

// Occupancy returns the number of lines owner currently holds. This is
// the quantity an MPAM cache-storage usage monitor reports.
func (c *Cache) Occupancy(owner Owner) int { return c.occupancy[owner] }

// TotalLines returns the cache capacity in lines.
func (c *Cache) TotalLines() int { return c.cfg.Sets * c.cfg.Ways }

// Stats returns a copy of the owner's counters.
func (c *Cache) Stats(owner Owner) Stats {
	if s := c.stats[owner]; s != nil {
		return *s
	}
	return Stats{}
}

// Flush invalidates every line owned by owner (writebacks counted),
// modelling a partition teardown. It walks the line storage, which
// holds only the installed sets and the all-invalid rest of the last
// block.
func (c *Cache) Flush(owner Owner) int {
	n := 0
	for _, b := range c.blocks {
		for i := range b {
			l := &b[i]
			if l.valid && l.owner == owner {
				if l.dirty {
					c.ownerStats(owner).Writebacks++
				}
				l.valid = false
				c.occupancy[owner]--
				n++
			}
		}
	}
	return n
}

func (c *Cache) ownerStats(o Owner) *Stats {
	s := c.stats[o]
	if s == nil {
		s = &Stats{}
		c.stats[o] = s
	}
	return s
}
