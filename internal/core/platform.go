// Package core models a centralized automotive vehicle integration
// platform (VIP): the heterogeneous SoC of the paper's introduction,
// assembled from the repository's substrates. CPU clusters share a
// DynamIQ-style L3 (internal/dsu), clusters reach DRAM (internal/dram)
// across a wormhole NoC (internal/noc), and the predictability
// mechanisms of Sections II and III hang off the same fabric: software
// cache coloring and MemGuard-style bandwidth regulation, hardware
// way-partitioning, and token-bucket injection shaping at the network
// interfaces.
//
// Two platform shapes share this code. The legacy single-channel shape
// (Channels <= 1) co-locates every component on one engine — one DRAM
// controller, one MemGuard regulator, one MPAM channel — exactly the
// paper's X1 experiment setup. The clustered shape (Channels > 1)
// distributes the memory system: one DRAM controller per channel on
// its own mesh node, per-cluster MemGuard regulators and MPAM
// arbiters, per-cluster L2/L3s, and apps bound to their node's engine.
// Under a Parallel kernel each cluster's column slab becomes (part of)
// a partition, so clusters genuinely execute concurrently; requests
// that do cross a cut ride the NoC and the CrossAfter/CompleteOn
// machinery at link latency.
//
// Applications are closed-loop traffic generators with automotive
// profiles (internal/trace); their end-to-end memory latency is the
// metric every experiment reports.
package core

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/dsu"
	"repro/internal/memguard"
	"repro/internal/mpam"
	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ChannelMode selects how physical addresses map onto a multi-channel
// memory system.
type ChannelMode int

const (
	// ChannelInterleave round-robins row-sized lines across channels
	// (dram.Interleave): maximum bandwidth spread, every app touches
	// every channel.
	ChannelInterleave ChannelMode = iota
	// ChannelPartition binds each cluster's traffic to its home
	// channel — software channel-aware memory partitioning (Kim et
	// al.): each cluster's misses stay on one controller, which keeps
	// per-cluster memory paths independent (analyzable per channel,
	// and, under a Parallel kernel, free of cross-partition traffic).
	ChannelPartition
)

// String implements fmt.Stringer.
func (m ChannelMode) String() string {
	if m == ChannelPartition {
		return "partition"
	}
	return "interleave"
}

// Config assembles a platform.
type Config struct {
	// Clusters describes each CPU cluster's caches. In a clustered
	// platform (Channels > 1) cluster k owns the mesh columns
	// [k*W/C, (k+1)*W/C): apps on those columns must belong to it.
	Clusters []dsu.Config
	// Mesh is the interconnect; Memory parameterizes each DRAM
	// controller.
	Mesh   noc.Config
	Memory dram.Config
	// MemoryNode is the mesh coordinate of the DRAM controller in the
	// single-channel shape (and the partition-plan home node in both).
	MemoryNode noc.Coord
	// MemGuard, when non-nil, enables software bandwidth regulation:
	// one shared regulator in the single-channel shape, one per
	// cluster in the clustered shape.
	MemGuard *memguard.Config
	// L3HitLatency is the service time of an L3 hit; L2HitLatency of a
	// cluster-private L2 hit (only meaningful when cluster configs
	// enable an L2).
	L3HitLatency sim.Duration
	L2HitLatency sim.Duration
	// RowBytes sets the DRAM address interleaving granularity.
	RowBytes int

	// Channels is the number of DRAM channels. 0 or 1 is the legacy
	// single-controller platform at MemoryNode; > 1 builds one
	// controller per channel, placed per ChannelNodes.
	Channels int
	// ChannelMode selects the address-to-channel function (multi-
	// channel only).
	ChannelMode ChannelMode
	// ChannelNodes optionally pins each channel's mesh node; empty
	// derives a default placement that spreads channels across column
	// slabs on the bottom row.
	ChannelNodes []noc.Coord

	// Partitions runs the platform on a conservative-lookahead Parallel
	// kernel with this many event partitions (lookahead = the mesh
	// FlitTime, the minimum inter-partition link latency). 0 or 1 keeps
	// the plain sequential engine. On the single-channel shape every
	// component co-locates on the home partition (output byte-identical
	// for every N, non-home partitions idle); on the clustered shape
	// the cut is cluster-atomic and clusters run concurrently.
	Partitions int
}

// DefaultConfig returns a two-cluster platform on a 4x4 mesh with the
// paper's DDR3-1600 controller at node (3,3).
func DefaultConfig() Config {
	mg := memguard.DefaultConfig()
	return Config{
		Clusters:     []dsu.Config{dsu.DefaultConfig(), dsu.DefaultConfig()},
		Mesh:         noc.DefaultConfig(),
		Memory:       dram.DefaultConfig(),
		MemoryNode:   noc.Coord{X: 3, Y: 3},
		MemGuard:     &mg,
		L3HitLatency: sim.NS(20),
		RowBytes:     2048,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Clusters) == 0 {
		return fmt.Errorf("core: platform needs at least one cluster")
	}
	for i, cl := range c.Clusters {
		if err := cl.Validate(); err != nil {
			return fmt.Errorf("core: cluster %d: %w", i, err)
		}
	}
	if err := c.Mesh.Validate(); err != nil {
		return err
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if c.L3HitLatency < 0 {
		return fmt.Errorf("core: negative L3 hit latency")
	}
	if c.L2HitLatency < 0 {
		return fmt.Errorf("core: negative L2 hit latency")
	}
	if c.RowBytes <= 0 {
		return fmt.Errorf("core: RowBytes must be positive")
	}
	if c.MemGuard != nil {
		if err := c.MemGuard.Validate(); err != nil {
			return err
		}
	}
	if c.Partitions < 0 {
		return fmt.Errorf("core: Partitions must be non-negative, got %d", c.Partitions)
	}
	if c.Channels > 1 {
		if c.Channels > c.Mesh.Width {
			return fmt.Errorf("core: %d channels need at least that many mesh columns, got %d", c.Channels, c.Mesh.Width)
		}
		if len(c.Clusters) > c.Mesh.Width {
			return fmt.Errorf("core: %d clusters need at least that many mesh columns, got %d", len(c.Clusters), c.Mesh.Width)
		}
		if len(c.ChannelNodes) != 0 && len(c.ChannelNodes) != c.Channels {
			return fmt.Errorf("core: %d channel nodes for %d channels", len(c.ChannelNodes), c.Channels)
		}
	}
	return nil
}

// channelNodes returns the per-channel mesh placement: the configured
// nodes, or the default spread — channel i at the column midpoint of
// its slab share, on the bottom row (mirroring the legacy memory node
// convention).
func (c Config) channelNodes() []noc.Coord {
	if c.Channels <= 1 {
		return []noc.Coord{c.MemoryNode}
	}
	if len(c.ChannelNodes) == c.Channels {
		return append([]noc.Coord(nil), c.ChannelNodes...)
	}
	nodes := make([]noc.Coord, c.Channels)
	for i := range nodes {
		nodes[i] = noc.Coord{X: (2*i + 1) * c.Mesh.Width / (2 * c.Channels), Y: c.Mesh.Height - 1}
	}
	return nodes
}

// PartitionPlan is the topology cut BuildPlatform derives for a
// Parallel kernel: vertical column slabs of the mesh, so every cut
// link is an East/West hop and the kernel lookahead is exactly one
// FlitTime. Home is the slab holding the memory node. On a clustered
// platform the cut is additionally cluster-atomic — a cluster's
// columns always land in one partition, for every partition count —
// so the zero-latency couplings inside a cluster (its L2/L3, its
// MemGuard regulator, its apps) never straddle a cut.
type PartitionPlan struct {
	Partitions int
	Lookahead  sim.Duration
	Home       int
	width      int
	// clusters > 0 makes Assign cluster-atomic (column -> cluster ->
	// partition); 0 is the plain column cut.
	clusters int
}

// PlanPartitions cuts a mesh into n column slabs.
func PlanPartitions(mesh noc.Config, memNode noc.Coord, n int) PartitionPlan {
	if n < 1 {
		n = 1
	}
	if n > mesh.Width {
		n = mesh.Width // no empty slabs: at most one partition per column
	}
	pl := PartitionPlan{Partitions: n, Lookahead: mesh.FlitTime, width: mesh.Width}
	pl.Home = pl.Assign(memNode)
	return pl
}

// PlanPartitionsClustered cuts a mesh into n cluster-atomic slabs: n
// is clamped to the cluster count (and the mesh width), and every
// cluster's columns map into exactly one partition for every n — the
// property that keeps a clustered platform's intra-cluster couplings
// off the cut regardless of how many partitions run.
func PlanPartitionsClustered(mesh noc.Config, memNode noc.Coord, clusters, n int) PartitionPlan {
	if clusters < 1 {
		return PlanPartitions(mesh, memNode, n)
	}
	if n < 1 {
		n = 1
	}
	if n > mesh.Width {
		n = mesh.Width
	}
	if n > clusters {
		n = clusters
	}
	pl := PartitionPlan{Partitions: n, Lookahead: mesh.FlitTime, width: mesh.Width, clusters: clusters}
	pl.Home = pl.Assign(memNode)
	return pl
}

// Assign returns the partition owning the node at c under the column
// cut.
func (pl PartitionPlan) Assign(c noc.Coord) int {
	if pl.width == 0 || pl.Partitions <= 1 {
		return 0
	}
	if pl.clusters > 0 {
		k := c.X * pl.clusters / pl.width
		if k >= pl.clusters {
			k = pl.clusters - 1
		}
		return k * pl.Partitions / pl.clusters
	}
	p := c.X * pl.Partitions / pl.width
	if p >= pl.Partitions {
		p = pl.Partitions - 1
	}
	return p
}

// memChannel is one memory channel's assembly: the controller, its
// mesh node and NI, the engine owning that node, and — when the MPAM
// channel is enabled — the channel's bandwidth arbiter. The legacy
// single-channel platform is exactly one of these at MemoryNode.
type memChannel struct {
	idx  int
	node noc.Coord
	eng  *sim.Engine
	ctrl *dram.Controller
	ni   *noc.NI

	arb  *mpam.Arbiter
	mons *mpam.MonitorSet

	// nextReqID assigns per-channel DRAM request IDs; per channel so
	// concurrent partitions never share the counter word.
	nextReqID uint64
}

// Platform is an assembled VIP SoC model.
type Platform struct {
	// Eng is the engine the platform's shared components schedule on:
	// the plain sequential engine, or — under Config.Partitions — the
	// home partition of the Parallel kernel (see PartitionPlan). On a
	// clustered platform per-cluster components run on their own
	// slab's engine instead.
	Eng *sim.Engine

	// par drives the run loop when the platform sits on a Parallel
	// kernel; plan records the topology cut that chose the home
	// partition.
	par  *sim.Parallel
	plan PartitionPlan

	cfg      Config
	clusters []*dsu.Cluster
	coloring []*cache.Coloring // per cluster, nil until enabled
	mesh     *noc.NoC

	// distributed marks the clustered (multi-channel) shape.
	distributed bool
	chans       []*memChannel
	ivl         dram.Interleave

	// mem aliases the single controller on the legacy shape (nil when
	// clustered — use Channels/ChannelController).
	mem *dram.Controller
	// reg is the shared regulator on the legacy shape; regs[k] is
	// cluster k's regulator on both shapes (all aliases of reg when
	// legacy).
	reg  *memguard.Regulator
	regs []*memguard.Regulator

	apps  map[string]*App
	order []*App // registration order
	// freeApps is the rest of the array reserveApps allocated; AddApp
	// takes apps from it before allocating one by one.
	freeApps []App
	// names holds the apps' derived names (hog names, response flows)
	// back to back, so they cost no allocation each; see joinName.
	names strings.Builder
	// homed[c] counts the apps whose home channel is c.
	homed []int

	mpamArb  *mpam.Arbiter
	mpamMons *mpam.MonitorSet

	tel *telemetry.Suite

	aud       *audit.Auditor
	audBounds map[string]float64
	// ncCache memoizes the auditor's Network Calculus compositions;
	// per-platform (never shared across runs) so published hit/miss
	// counters stay deterministic for a given scenario and seed.
	ncCache *netcalc.Cache
	// dramReq is the WCD DRAM service curve (in requests) every audited
	// app's bound composes; it takes no platform input, so EnableAudit
	// derives it once. dramReqErr is its derivation error.
	dramReq    netcalc.Curve
	dramReqErr error
	audCurves  auditCurves
}

// New assembles a platform on a fresh engine.
func New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{
		cfg:         cfg,
		apps:        make(map[string]*App),
		distributed: cfg.Channels > 1,
	}
	if cfg.Partitions >= 1 {
		// Conservative-lookahead kernel cut on the mesh: the link time
		// is the lookahead. Legacy shape: every component co-locates on
		// the cut's home partition — the zero-latency couplings (shared
		// L3, MemGuard, credit returns, MPAM) make any other placement
		// diverge from the sequential goldens — so non-home partitions
		// idle and output stays byte-identical for every partition
		// count. Clustered shape: the cut is cluster-atomic and each
		// slab's components run on their own partition.
		if p.distributed {
			p.plan = PlanPartitionsClustered(cfg.Mesh, cfg.MemoryNode, len(cfg.Clusters), cfg.Partitions)
		} else {
			p.plan = PlanPartitions(cfg.Mesh, cfg.MemoryNode, cfg.Partitions)
		}
		lookahead := p.plan.Lookahead
		if p.plan.Partitions == 1 {
			lookahead = 0
		}
		p.par = sim.NewParallel(p.plan.Partitions, lookahead)
		p.Eng = p.par.Partition(p.plan.Home)
	} else {
		p.Eng = sim.NewEngine()
	}
	for _, cc := range cfg.Clusters {
		cl, err := dsu.NewCluster(cc)
		if err != nil {
			return nil, err
		}
		p.clusters = append(p.clusters, cl)
	}
	p.coloring = make([]*cache.Coloring, len(p.clusters))

	var mesh *noc.NoC
	var err error
	if p.distributed && p.par != nil && p.plan.Partitions > 1 {
		mesh, err = noc.NewPartitioned(p.par, cfg.Mesh, func(c noc.Coord) int { return p.plan.Assign(c) })
	} else {
		mesh, err = noc.New(p.Eng, cfg.Mesh)
	}
	if err != nil {
		return nil, err
	}
	p.mesh = mesh
	if !mesh.InMesh(cfg.MemoryNode) {
		return nil, fmt.Errorf("core: memory node %v outside mesh", cfg.MemoryNode)
	}

	nodes := cfg.channelNodes()
	seen := make(map[noc.Coord]bool, len(nodes))
	for i, node := range nodes {
		if !mesh.InMesh(node) {
			return nil, fmt.Errorf("core: channel %d node %v outside mesh", i, node)
		}
		if seen[node] {
			return nil, fmt.Errorf("core: channel %d node %v duplicates another channel", i, node)
		}
		seen[node] = true
		mcfg := cfg.Memory
		if p.distributed {
			// Completions hopping back over a partition cut (posted
			// writes to a remote cluster) carry one link time and a
			// per-channel merge key, so cross-channel retirement order
			// is topology-defined.
			mcfg.CrossCompleteLatency = cfg.Mesh.FlitTime
			mcfg.CrossKey = crossKeyDRAMBase | uint64(i)
		}
		ch := &memChannel{idx: i, node: node, eng: mesh.EngineAt(node)}
		ctrl, err := dram.NewController(ch.eng, mcfg, nil)
		if err != nil {
			return nil, err
		}
		ch.ctrl = ctrl
		ch.ni, _ = mesh.NI(node)
		p.chans = append(p.chans, ch)
	}
	p.homed = make([]int, len(p.chans))
	if !p.distributed {
		p.mem = p.chans[0].ctrl
	}
	p.ivl = dram.Interleave{Channels: len(p.chans), RowBytes: int64(cfg.RowBytes), Banks: cfg.Memory.Banks}

	p.regs = make([]*memguard.Regulator, len(p.clusters))
	if cfg.MemGuard != nil {
		if p.distributed {
			for k := range p.clusters {
				reg, err := memguard.New(p.clusterEngine(k), *cfg.MemGuard)
				if err != nil {
					return nil, err
				}
				p.regs[k] = reg
			}
		} else {
			reg, err := memguard.New(p.Eng, *cfg.MemGuard)
			if err != nil {
				return nil, err
			}
			p.reg = reg
			for k := range p.regs {
				p.regs[k] = reg
			}
		}
	}
	return p, nil
}

// crossKeyDRAMBase namespaces DRAM cross-partition completion keys
// away from the NoC's link (srcIdx<<3|port) and credit (1<<40|...)
// key spaces.
const crossKeyDRAMBase = uint64(1) << 41

// Distributed reports whether the platform is the clustered
// multi-channel shape.
func (p *Platform) Distributed() bool { return p.distributed }

// Channels reports the memory channel count.
func (p *Platform) Channels() int { return len(p.chans) }

// ChannelController returns channel i's DRAM controller.
func (p *Platform) ChannelController(i int) (*dram.Controller, error) {
	if i < 0 || i >= len(p.chans) {
		return nil, fmt.Errorf("core: channel %d of %d", i, len(p.chans))
	}
	return p.chans[i].ctrl, nil
}

// ChannelNode returns channel i's mesh coordinate.
func (p *Platform) ChannelNode(i int) (noc.Coord, error) {
	if i < 0 || i >= len(p.chans) {
		return noc.Coord{}, fmt.Errorf("core: channel %d of %d", i, len(p.chans))
	}
	return p.chans[i].node, nil
}

// ClusterOfColumn returns the cluster owning mesh column x (clustered
// shape; 0 when the platform has one cluster-slab mapping to speak
// of).
func (p *Platform) ClusterOfColumn(x int) int {
	c := len(p.clusters)
	w := p.cfg.Mesh.Width
	if c == 0 || w == 0 {
		return 0
	}
	k := x * c / w
	if k >= c {
		k = c - 1
	}
	return k
}

// clusterEngine returns the engine owning cluster k's slab (the
// shared engine on a non-partitioned fabric).
func (p *Platform) clusterEngine(k int) *sim.Engine {
	c := len(p.clusters)
	x := (k*p.cfg.Mesh.Width + c - 1) / c // first column of cluster k
	if x >= p.cfg.Mesh.Width {
		x = p.cfg.Mesh.Width - 1
	}
	return p.mesh.EngineAt(noc.Coord{X: x, Y: 0})
}

// HomeChannel returns the channel serving cluster k's traffic under
// ChannelPartition.
func (p *Platform) HomeChannel(k int) int {
	c := len(p.clusters)
	if c == 0 || len(p.chans) <= 1 {
		return 0
	}
	ch := k * len(p.chans) / c
	if ch >= len(p.chans) {
		ch = len(p.chans) - 1
	}
	return ch
}

// Mesh exposes the interconnect (e.g. for admission-control overlays).
func (p *Platform) Mesh() *noc.NoC { return p.mesh }

// MeshConfig returns the mesh topology the platform was built with.
func (p *Platform) MeshConfig() noc.Config { return p.cfg.Mesh }

// ClusterCount returns the number of compute clusters.
func (p *Platform) ClusterCount() int { return len(p.clusters) }

// Cluster returns cluster i's DSU model.
func (p *Platform) Cluster(i int) (*dsu.Cluster, error) {
	if i < 0 || i >= len(p.clusters) {
		return nil, fmt.Errorf("core: cluster %d of %d", i, len(p.clusters))
	}
	return p.clusters[i], nil
}

// Memory exposes the DRAM controller on the legacy single-channel
// shape (nil when clustered — use ChannelController).
func (p *Platform) Memory() *dram.Controller { return p.mem }

// RowHitRate returns the aggregate row-hit rate across every channel
// (identical to Memory().Stats().RowHitRate() on the legacy shape).
func (p *Platform) RowHitRate() float64 {
	var hits, total uint64
	for _, ch := range p.chans {
		st := ch.ctrl.Stats()
		hits += st.RowHits
		total += st.RowHits + st.RowClosed + st.RowConflicts
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Regulator exposes the MemGuard regulator on the legacy shape (nil
// when disabled or clustered — clustered platforms regulate per
// cluster, see ClusterRegulator).
func (p *Platform) Regulator() *memguard.Regulator { return p.reg }

// ClusterRegulator returns cluster k's MemGuard regulator (the shared
// one on the legacy shape; nil when regulation is disabled).
func (p *Platform) ClusterRegulator(k int) *memguard.Regulator {
	if k < 0 || k >= len(p.regs) {
		return nil
	}
	return p.regs[k]
}

// ProgramDSU writes a cluster's L3 partition control register.
func (p *Platform) ProgramDSU(cluster int, reg dsu.ClusterPartCR) error {
	cl, err := p.Cluster(cluster)
	if err != nil {
		return err
	}
	cl.Program(reg)
	return nil
}

// EnableColoring switches a cluster to software page coloring with the
// given page size (the Section II baseline to hardware partitioning).
func (p *Platform) EnableColoring(cluster int, pageSize int) error {
	cl, err := p.Cluster(cluster)
	if err != nil {
		return err
	}
	col, err := cache.NewColoring(cl.L3().Config(), pageSize)
	if err != nil {
		return err
	}
	p.coloring[cluster] = col
	return nil
}

// AssignColors constrains an app's pages to the given colors.
func (p *Platform) AssignColors(app string, colors []int) error {
	a, ok := p.apps[app]
	if !ok {
		return fmt.Errorf("core: unknown app %q", app)
	}
	col := p.coloring[a.cfg.Cluster]
	if col == nil {
		return fmt.Errorf("core: coloring not enabled on cluster %d", a.cfg.Cluster)
	}
	return col.Assign(cache.Owner(a.cfg.Scheme), colors)
}

// SetMemBudget gives an app a MemGuard budget (bytes per regulation
// period) on its cluster's regulator.
func (p *Platform) SetMemBudget(app string, bytesPerPeriod int) error {
	a, ok := p.apps[app]
	if !ok {
		return fmt.Errorf("core: unknown app %q", app)
	}
	return a.setMemBudget(bytesPerPeriod)
}

// setMemBudget sets the budget on the app's bound MemGuard entity.
func (a *App) setMemBudget(bytesPerPeriod int) error {
	if a.mg == nil {
		return fmt.Errorf("core: MemGuard disabled on this platform")
	}
	return a.mg.SetBudget(bytesPerPeriod)
}

// SetNodeShaper installs a token-bucket injection shaper on a node's
// network interface (burst bytes, rate bytes/ns).
func (p *Platform) SetNodeShaper(node noc.Coord, burst, rate float64) error {
	ni, err := p.mesh.NI(node)
	if err != nil {
		return err
	}
	sh, err := netcalc.NewShaper(burst, rate)
	if err != nil {
		return err
	}
	ni.SetShaper(sh)
	return nil
}

// RunFor advances the platform by d of virtual time.
func (p *Platform) RunFor(d sim.Duration) {
	p.RunUntil(p.Eng.Now() + d)
}

// RunUntil advances the platform to absolute virtual time t — through
// the Parallel kernel's barrier loop when one is configured, else the
// sequential engine.
func (p *Platform) RunUntil(t sim.Time) {
	if p.par != nil {
		p.par.RunUntil(t)
		return
	}
	p.Eng.RunUntil(t)
}

// Kernel returns the Parallel kernel driving the platform, nil on the
// plain sequential engine.
func (p *Platform) Kernel() *sim.Parallel { return p.par }

// Plan returns the partition plan (zero value without a kernel).
func (p *Platform) Plan() PartitionPlan { return p.plan }

// bankRow maps a physical address onto a single channel's DRAM
// geometry (the legacy map, also the per-channel map under
// ChannelPartition).
func (p *Platform) bankRow(addr uint64) (bank int, row int64) {
	rb := uint64(p.cfg.RowBytes)
	banks := uint64(p.cfg.Memory.Banks)
	bank = int((addr / rb) % banks)
	row = int64(addr / (rb * banks))
	return bank, row
}

// route maps a miss address to its memory channel and the channel-
// local (bank, row). Single channel: the legacy map. Multi-channel
// ChannelInterleave: the dram.Interleave function on the physical
// address. ChannelPartition: the issuing cluster's home channel with
// the legacy per-channel map (channel-aware placement).
func (p *Platform) route(addr uint64, cluster int) (ch *memChannel, bank int, row int64) {
	if !p.distributed {
		b, r := p.bankRow(addr)
		return p.chans[0], b, r
	}
	if p.cfg.ChannelMode == ChannelPartition {
		b, r := p.bankRow(addr)
		return p.chans[p.HomeChannel(cluster)], b, r
	}
	c, b, r := p.ivl.Route(int64(addr))
	return p.chans[c], b, r
}

// submitDRAM queues a request on one channel (its completion
// continuation, if any, rides in req.OnComplete); on a full queue it
// retries after a backoff (modelling interconnect backpressure).
func (p *Platform) submitDRAM(ch *memChannel, req *dram.Request) {
	ch.nextReqID++
	req.ID = ch.nextReqID
	if err := ch.ctrl.Submit(req); err != nil {
		ch.eng.After(100*sim.Nanosecond, func() { p.submitDRAM(ch, req) })
	}
}
