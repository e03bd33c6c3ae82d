package noc

import (
	"math/bits"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// router is one mesh router: five input FIFOs, five output ports with
// wormhole locking and round-robin (iSLIP-style) arbitration, and
// credit-based flow control toward downstream input buffers.
type router struct {
	noc *NoC
	at  Coord
	// eng is the engine this router schedules on: the shared engine in
	// a sequential fabric, the owning partition's in a partitioned one.
	eng *sim.Engine

	// in[p] is the input FIFO fed by the neighbor (or NI) on port p.
	// Flits enter and leave only through push and pop, which keep
	// ready in step.
	in [numPorts]fifo.Queue[flit]
	// ready[p] has bit i set iff input i's head flit is a packet head
	// that routeXY sends to output p: the inputs an unlocked output p
	// may grant.
	ready [numPorts]uint8
	// out[p] is the state of output port p.
	out [numPorts]outPort
	// credits[p] counts free downstream buffer slots through output p.
	credits [numPorts]int

	// Per-router accumulators so partitions never share counter words;
	// the fabric sums them on read.
	delivered uint64
	flitHops  uint64
	// probes counts the input queues the round-robin arbiter examines
	// to pick a packet head (the pick it makes from ready is one).
	probes uint64

	// creditFns[p] returns one credit to input port p's bookkeeping on
	// THIS router; prebound so cross-cut credit returns reuse one
	// function value per (router, port) instead of closing over state
	// per flit. Nil on a fabric without a Parallel kernel.
	creditFns [numPorts]sim.Event
}

// outPort tracks one output port's wormhole and arbitration state.
type outPort struct {
	busy bool
	// locked is true while a packet's worm occupies the port; input
	// identifies which input FIFO it drains.
	locked bool
	input  Port
	// rr is the round-robin pointer for the next head-flit grant.
	rr Port
	// inflight is the flit currently traversing the port (valid while
	// busy); done is the port's traversal-complete callback, bound on
	// the port's first flit (ports facing off the mesh never build one)
	// so the hot path schedules it without allocating a closure per
	// flit. crossDone is its cross-cut twin
	// (nil without a Parallel kernel): when the downstream arrival was
	// prescheduled through the kernel mailbox it only frees the port and
	// re-arbitrates.
	inflight  flit
	done      func()
	crossDone func()
}

// initRouter sets up the zero router r at node at.
func initRouter(r *router, n *NoC, at Coord, eng *sim.Engine) {
	r.noc, r.at, r.eng = n, at, eng
	for p := Port(0); p < numPorts; p++ {
		p := p
		if n.par != nil {
			// Only a partitioned fabric has cuts to cross.
			r.out[p].crossDone = func() { r.freePort(p) }
			r.creditFns[p] = func() {
				r.credits[p]++
				r.kick()
			}
		}
		if p == Local {
			// Ejection consumes flits immediately; effectively infinite.
			r.credits[p] = 1 << 30
			continue
		}
		if n.InMesh(neighbor(at, p)) {
			r.credits[p] = n.cfg.BufferFlits
		}
	}
}

// kick schedules arbitration for every output port that may now make
// progress. Scheduling is idempotent per port via the busy flag.
func (r *router) kick() {
	for p := Port(0); p < numPorts; p++ {
		r.tryOutput(p)
	}
}

// push appends f to input i, marking i ready when f becomes the head
// of an empty queue and starts a packet.
func (r *router) push(i Port, f flit) {
	q := &r.in[i]
	if q.Len() == 0 && f.head {
		r.ready[routeXY(r.at, f.pkt.Dst)] |= 1 << i
	}
	q.Push(f)
}

// pop removes input i's head flit and re-marks i for the flit behind
// it.
func (r *router) pop(i Port) flit {
	q := &r.in[i]
	f := q.Pop()
	if f.head {
		r.ready[routeXY(r.at, f.pkt.Dst)] &^= 1 << i
	}
	if q.Len() > 0 {
		if h := q.Peek(); h.head {
			r.ready[routeXY(r.at, h.pkt.Dst)] |= 1 << i
		}
	}
	return f
}

// grant returns the input output p serves next, or -1. A locked port
// (wormhole) waits for its packet's next flit; an unlocked one grants
// the first ready input at or after its round-robin pointer and moves
// the pointer past it, even if the credit check then refuses the flit.
func (r *router) grant(p Port) Port {
	o := &r.out[p]
	if o.locked {
		if r.in[o.input].Len() > 0 {
			return o.input
		}
		return -1
	}
	m := uint(r.ready[p])
	if m == 0 {
		return -1
	}
	// Rotate the 5-bit mask right by rr so bit 0 is input rr; its
	// lowest set bit is then the first ready input in round-robin order.
	rr := uint(o.rr)
	m = (m>>rr | m<<(uint(numPorts)-rr)) & (1<<numPorts - 1)
	in := Port((rr + uint(bits.TrailingZeros(m))) % uint(numPorts))
	o.rr = (in + 1) % numPorts
	r.probes++
	return in
}

// tryOutput attempts to forward one flit through output port p.
func (r *router) tryOutput(p Port) {
	o := &r.out[p]
	if o.busy {
		return
	}
	inPort := r.grant(p)
	if inPort < 0 {
		return
	}
	// Credit check toward downstream (Local always has credit).
	if r.credits[p] <= 0 {
		return
	}

	f := r.pop(inPort)
	r.credits[p]--
	if f.head {
		o.locked, o.input = true, inPort
	}
	if f.tail {
		o.locked = false
	}
	o.busy = true

	// Free the consumed input slot: return a credit upstream (the NI
	// or the neighboring router feeding this input).
	r.returnCredit(inPort)

	r.flitHops++
	if ts := r.noc.tel; ts != nil && !ts.multi {
		ts.cFlitHops.Inc()
	}
	o.inflight = f
	if p != Local {
		if next := r.noc.router(neighbor(r.at, p)); next.eng != r.eng {
			// Partition cut: the downstream arrival is scheduled on the
			// neighbor's engine now, for exactly the traversal-complete
			// instant — link latency IS the lookahead, so the send is
			// always legal and the flit lands at the same virtual time
			// as the sequential fabric's handoff. The local port frees
			// at the same instant via crossDone.
			inp := opposite(p)
			r.eng.CrossAfter(next.eng, r.noc.cfg.FlitTime, linkKey(r.noc.idx(r.at), p), func() {
				next.push(inp, f)
				next.kick()
			})
			r.eng.After(r.noc.cfg.FlitTime, o.crossDone)
			return
		}
	}
	if o.done == nil {
		o.done = func() { r.finishFlit(p) }
	}
	r.eng.After(r.noc.cfg.FlitTime, o.done)
}

// linkKey names the mailbox channel for flit arrivals over one
// directed link; keys are topology-derived so the barrier merge order
// is identical across runs. Credit returns for the reverse direction
// use a disjoint key space.
func linkKey(srcIdx int, p Port) uint64 { return uint64(srcIdx)<<3 | uint64(p) }

func creditKey(srcIdx int, p Port) uint64 { return 1<<40 | linkKey(srcIdx, p) }

// finishFlit completes one flit's traversal of output port p: hand it
// to the neighbor (or eject at Local) and re-arbitrate. The busy flag
// guarantees at most one flit per port is in flight, so the single
// inflight slot cannot be overwritten.
func (r *router) finishFlit(p Port) {
	o := &r.out[p]
	f := o.inflight
	o.inflight = flit{}
	o.busy = false
	if p == Local {
		r.eject(f)
	} else {
		next := r.noc.router(neighbor(r.at, p))
		next.push(opposite(p), f)
		next.kick()
	}
	r.kick()
}

// freePort ends a cross-cut traversal: the arrival was prescheduled
// through the mailbox, so only the port state is released here.
func (r *router) freePort(p Port) {
	o := &r.out[p]
	o.inflight = flit{}
	o.busy = false
	r.kick()
}

// returnCredit tells whoever feeds input port p that a buffer slot
// freed up. Within a partition the return is instantaneous, as in the
// sequential fabric; across a cut it rides the mailbox and lands one
// FlitTime later (the wire is the lookahead), which is invisible while
// the upstream never exhausts its credit window.
func (r *router) returnCredit(p Port) {
	if p == Local {
		// The NI feeds this port; let it inject more.
		r.noc.nis[r.noc.idx(r.at)].creditReturn()
		return
	}
	up := r.noc.router(neighbor(r.at, p))
	if up.eng != r.eng {
		r.eng.CrossAfter(up.eng, r.noc.cfg.FlitTime, creditKey(r.noc.idx(r.at), p), up.creditFns[opposite(p)])
		return
	}
	up.credits[opposite(p)]++
	up.kick()
}

// eject consumes a flit at the destination.
func (r *router) eject(f flit) {
	if f.tail {
		pkt := f.pkt
		pkt.Delivered = r.eng.Now()
		r.delivered++
		if r.noc.tel != nil {
			r.noc.traceDeliver(pkt, pkt.Delivered)
		}
		if pkt.OnDelivered != nil {
			pkt.OnDelivered(pkt.Delivered)
		}
	}
}
