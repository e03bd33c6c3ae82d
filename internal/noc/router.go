package noc

import "repro/internal/sim"

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
	in [numPorts]flitq
	// out[p] is the state of output port p.
	out [numPorts]outPort
	// credits[p] counts free downstream buffer slots through output p.
	credits [numPorts]int

	// Per-router accumulators so partitions never share counter words;
	// the fabric sums them on read.
	delivered uint64
	flitHops  uint64

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

// tryOutput attempts to forward one flit through output port p.
func (r *router) tryOutput(p Port) {
	o := &r.out[p]
	if o.busy {
		return
	}
	var inPort Port = -1
	if o.locked {
		// Wormhole: only the locked input may proceed, and only with
		// the locked packet's next flit at its head.
		if r.in[o.input].len() > 0 {
			inPort = o.input
		}
	} else {
		// Round-robin among inputs whose head flit is a packet head
		// routed to this output.
		for i := 0; i < int(numPorts); i++ {
			cand := Port((int(o.rr) + i) % int(numPorts))
			q := &r.in[cand]
			if q.len() == 0 || !q.peek().head {
				continue
			}
			if routeXY(r.at, q.peek().pkt.Dst) != p {
				continue
			}
			inPort = cand
			o.rr = Port((int(cand) + 1) % int(numPorts))
			break
		}
	}
	if inPort < 0 {
		return
	}
	// Credit check toward downstream (Local always has credit).
	if r.credits[p] <= 0 {
		return
	}

	f := r.in[inPort].pop()
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
				next.in[inp].push(f)
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
		next.in[opposite(p)].push(f)
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
