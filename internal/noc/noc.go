// Package noc implements a flit-level 2D-mesh network-on-chip with
// wormhole switching, dimension-ordered (XY) routing, credit-based
// flow control, and per-output round-robin arbitration (a
// single-iteration iSLIP, the multi-stage arbitration Section V of the
// paper names). Network interfaces carry token-bucket injection
// shapers so the admission-control layer (internal/admission) can
// regulate source rates, and the paper's observation that "the
// interconnection network has a finite capacity, hence acts as an
// implicit rate limiter" falls out of the model.
//
// The simulation is deterministic: routers and ports are events on the
// shared virtual-time engine, ties are broken by fixed port order and
// round-robin pointers.
package noc

import (
	"fmt"

	"repro/internal/netcalc"
	"repro/internal/sim"
)

// Coord addresses a mesh node.
type Coord struct{ X, Y int }

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Port is a router port direction.
type Port int

// Router ports. Local connects the node's network interface.
const (
	Local Port = iota
	North
	East
	South
	West
	numPorts
)

// String implements fmt.Stringer.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	}
	return fmt.Sprintf("port(%d)", int(p))
}

// Config sizes the mesh.
type Config struct {
	Width, Height int
	// FlitBytes is the payload carried per flit.
	FlitBytes int
	// FlitTime is the time to move one flit across one hop (switch
	// traversal + link).
	FlitTime sim.Duration
	// BufferFlits is the per-input-port buffer capacity.
	BufferFlits int
}

// DefaultConfig returns a 4x4 mesh with 16-byte flits at 1 flit/ns and
// 8-flit buffers.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, FlitBytes: 16, FlitTime: sim.NS(1), BufferFlits: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: mesh must be at least 1x1, got %dx%d", c.Width, c.Height)
	}
	if c.FlitBytes <= 0 {
		return fmt.Errorf("noc: FlitBytes must be positive, got %d", c.FlitBytes)
	}
	if c.FlitTime <= 0 {
		return fmt.Errorf("noc: FlitTime must be positive, got %v", c.FlitTime)
	}
	if c.BufferFlits < 1 {
		return fmt.Errorf("noc: BufferFlits must be >= 1, got %d", c.BufferFlits)
	}
	return nil
}

// Packet is one network transaction (a cache line transfer or DMA
// beat). It is segmented into flits at injection.
type Packet struct {
	ID    uint64
	Flow  string // flow label, e.g. an application name (cf. PARTID)
	Src   Coord
	Dst   Coord
	Bytes int

	OnDelivered func(at sim.Time)

	Injected  sim.Time // first flit entered the network
	Delivered sim.Time // tail flit consumed at the destination
	Submitted sim.Time // handed to the NI (may precede Injected: shaping)
}

// Latency returns submission-to-delivery latency (includes shaping
// delay).
func (p *Packet) Latency() sim.Duration { return p.Delivered - p.Submitted }

// NetworkLatency returns injection-to-delivery latency.
func (p *Packet) NetworkLatency() sim.Duration { return p.Delivered - p.Injected }

// flit is the unit of switching.
type flit struct {
	pkt  *Packet
	head bool
	tail bool
}

// flitq is a head-indexed FIFO of flits. Popping advances an index
// instead of reslicing (q = q[1:] strands the popped element's
// capacity, so the next append reallocates — the dominant allocation
// in the switching hot path before this type existed); capacity is
// recycled when the queue drains and compacted when the dead prefix
// dominates.
type flitq struct {
	buf  []flit
	head int
}

func (q *flitq) len() int { return len(q.buf) - q.head }

func (q *flitq) push(f flit) { q.buf = append(q.buf, f) }

// peek returns the head flit without removing it; only valid when
// len() > 0.
func (q *flitq) peek() *flit { return &q.buf[q.head] }

func (q *flitq) pop() flit {
	f := q.buf[q.head]
	q.buf[q.head] = flit{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return f
}

// NoC is the mesh fabric.
type NoC struct {
	eng     *sim.Engine
	cfg     Config
	routers []*router
	nis     []*NI

	// par is non-nil when the fabric spans a Parallel kernel's
	// partitions; partOf maps node index to partition id. In this mode
	// flits and credits crossing a partition cut travel through the
	// kernel's mailboxes with exactly FlitTime of latency (the
	// lookahead), and packet/hop counters live per router so partitions
	// never write shared fabric state.
	par    *sim.Parallel
	partOf []int32

	tel *telemetryState
}

// New builds the mesh and its network interfaces on one engine.
func New(eng *sim.Engine, cfg Config) (*NoC, error) {
	return build(cfg, nil, func(Coord) *sim.Engine { return eng }, func(Coord) int32 { return 0 })
}

// NewPartitioned builds the mesh across the partitions of a Parallel
// kernel: assign maps each node to a partition, and the node's router
// and NI schedule on that partition's engine. The kernel's lookahead
// must not exceed FlitTime — link traversal is the physical latency
// that makes the conservative protocol safe here. Cross-cut credit
// returns also take FlitTime (they are instantaneous on one engine),
// so cut timing matches the sequential fabric exactly only while
// downstream buffers never exhaust; with scarce credits the fabric
// stays deterministic but backpressure relaxes by one link time.
func NewPartitioned(par *sim.Parallel, cfg Config, assign func(Coord) int) (*NoC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if par == nil {
		return nil, fmt.Errorf("noc: NewPartitioned needs a kernel")
	}
	if par.Partitions() > 1 && par.Lookahead() > cfg.FlitTime {
		return nil, fmt.Errorf("noc: kernel lookahead %v exceeds FlitTime %v; cross-cut hops would violate the conservative horizon", par.Lookahead(), cfg.FlitTime)
	}
	pick := func(c Coord) int32 {
		p := assign(c)
		if p < 0 || p >= par.Partitions() {
			panic(fmt.Sprintf("noc: node %v assigned to partition %d of %d", c, p, par.Partitions()))
		}
		return int32(p)
	}
	return build(cfg, par, func(c Coord) *sim.Engine { return par.Partition(int(pick(c))) }, pick)
}

func build(cfg Config, par *sim.Parallel, engOf func(Coord) *sim.Engine, partOf func(Coord) int32) (*NoC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &NoC{cfg: cfg, par: par}
	n.routers = make([]*router, cfg.Width*cfg.Height)
	n.partOf = make([]int32, cfg.Width*cfg.Height)
	slab := make([]router, cfg.Width*cfg.Height) // one allocation for the mesh
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			c := Coord{x, y}
			i := n.idx(c)
			n.partOf[i] = partOf(c)
			n.routers[i] = &slab[i]
			initRouter(&slab[i], n, c, engOf(c))
		}
	}
	n.eng = n.routers[0].eng
	n.nis = make([]*NI, cfg.Width*cfg.Height)
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			c := Coord{x, y}
			n.nis[n.idx(c)] = newNI(n, c)
		}
	}
	return n, nil
}

// Partitioned reports whether the fabric spans a Parallel kernel.
func (n *NoC) Partitioned() bool { return n.par != nil }

// EngineAt returns the engine that owns the node at c (the shared
// engine for a sequential fabric).
func (n *NoC) EngineAt(c Coord) *sim.Engine { return n.routers[n.idx(c)].eng }

// PartitionAt returns the partition owning the node at c (0 for a
// sequential fabric).
func (n *NoC) PartitionAt(c Coord) int { return int(n.partOf[n.idx(c)]) }

func (n *NoC) idx(c Coord) int { return c.Y*n.cfg.Width + c.X }

// InMesh reports whether the coordinate is on the mesh.
func (n *NoC) InMesh(c Coord) bool {
	return c.X >= 0 && c.X < n.cfg.Width && c.Y >= 0 && c.Y < n.cfg.Height
}

// Router returns the router at c.
func (n *NoC) router(c Coord) *router { return n.routers[n.idx(c)] }

// NI returns the network interface at c.
func (n *NoC) NI(c Coord) (*NI, error) {
	if !n.InMesh(c) {
		return nil, fmt.Errorf("noc: %v outside the %dx%d mesh", c, n.cfg.Width, n.cfg.Height)
	}
	return n.nis[n.idx(c)], nil
}

// Config returns the mesh configuration.
func (n *NoC) Config() Config { return n.cfg }

// Delivered returns the total packets delivered. Counters accumulate
// per router (each mutated only by its owning partition); reading
// them mid-run in partitioned mode is only coherent at a barrier —
// i.e. outside Run/RunUntil.
func (n *NoC) Delivered() uint64 {
	var total uint64
	for _, r := range n.routers {
		total += r.delivered
	}
	return total
}

// FlitHops returns the total flit-hop count (a utilization proxy).
func (n *NoC) FlitHops() uint64 {
	var total uint64
	for _, r := range n.routers {
		total += r.flitHops
	}
	return total
}

// FlitsFor returns the number of flits a payload needs.
func (n *NoC) FlitsFor(bytes int) int {
	f := (bytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// neighbor returns the adjacent coordinate through the given port.
func neighbor(c Coord, p Port) Coord {
	switch p {
	case North:
		return Coord{c.X, c.Y - 1}
	case South:
		return Coord{c.X, c.Y + 1}
	case East:
		return Coord{c.X + 1, c.Y}
	case West:
		return Coord{c.X - 1, c.Y}
	}
	return c
}

// opposite returns the port on the far side of a link.
func opposite(p Port) Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// routeXY is dimension-ordered routing: correct X, then Y.
func routeXY(at, dst Coord) Port {
	switch {
	case dst.X > at.X:
		return East
	case dst.X < at.X:
		return West
	case dst.Y > at.Y:
		return South
	case dst.Y < at.Y:
		return North
	}
	return Local
}

// HopCount returns the XY route length in hops between two nodes.
func HopCount(a, b Coord) int {
	dx, dy := b.X-a.X, b.Y-a.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// ServiceCurve returns a rate-latency lower service curve for a flow
// crossing the mesh between two nodes, assuming it competes with at
// most `contenders` equal flows per link: rate = linkRate/(contenders)
// in bytes/ns, latency = hops * flit time + serialization. Used by the
// admission layer and Section IV-style end-to-end composition.
func (n *NoC) ServiceCurve(src, dst Coord, contenders int) netcalc.Curve {
	if contenders < 1 {
		contenders = 1
	}
	hops := HopCount(src, dst) + 1 // +1 for ejection
	linkRate := float64(n.cfg.FlitBytes) / n.cfg.FlitTime.Nanoseconds()
	rate := linkRate / float64(contenders)
	latency := float64(hops) * n.cfg.FlitTime.Nanoseconds()
	return netcalc.RateLatency(rate, latency)
}
