package noc

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/netcalc"
	"repro/internal/sim"
)

// NI is a node's network interface: it segments packets into flits,
// enforces an optional token-bucket injection shaper, and feeds the
// local router port under credit flow control. The admission-control
// layer's clients (Section V) sit exactly here: they block, unblock
// and re-rate the NI.
type NI struct {
	noc *NoC
	at  Coord
	// eng is the owning partition's engine — always the same engine as
	// the node's router, so NI↔router coupling (injection, local
	// credits) stays synchronous even in a partitioned fabric.
	eng *sim.Engine

	shaper  *netcalc.Shaper
	blocked bool

	queue   fifo.Queue[*Packet]
	credits int // free slots in the router's local input buffer
	current *Packet
	left    int // flits of current still to inject
	pumping bool

	nextID    uint64
	submitted uint64
	injected  uint64

	// pumpFn is pump bound once, so shaper re-arms schedule a pooled
	// kernel event instead of allocating a method-value closure.
	pumpFn sim.Event
}

func newNI(n *NoC, at Coord) *NI {
	ni := &NI{noc: n, at: at, eng: n.router(at).eng, credits: n.cfg.BufferFlits}
	ni.pumpFn = ni.pump
	return ni
}

// At returns the NI's mesh coordinate.
func (ni *NI) At() Coord { return ni.at }

// SetShaper installs a token-bucket injection shaper (burst in bytes,
// rate in bytes/ns). Passing nil removes shaping.
func (ni *NI) SetShaper(s *netcalc.Shaper) {
	ni.shaper = s
	ni.pump()
}

// SetRate adjusts the shaper's sustained rate at the current virtual
// time; a no-op without a shaper.
func (ni *NI) SetRate(rate float64) {
	if ni.shaper != nil {
		ni.shaper.SetRate(ni.eng.Now(), rate)
		ni.pump()
	}
}

// Block stops all injection (the admission protocol's stopMsg).
func (ni *NI) Block() { ni.blocked = true }

// Unblock resumes injection (after a confMsg).
func (ni *NI) Unblock() {
	ni.blocked = false
	ni.pump()
}

// Blocked reports whether injection is stopped.
func (ni *NI) Blocked() bool { return ni.blocked }

// QueueLen returns the number of packets waiting (excluding the one
// partially injected).
func (ni *NI) QueueLen() int { return ni.queue.Len() }

// Counts returns packets submitted and fully injected so far.
func (ni *NI) Counts() (submitted, injected uint64) {
	return ni.submitted, ni.injected
}

// Send enqueues a packet for injection. Src is forced to this NI's
// coordinate.
func (ni *NI) Send(p *Packet) error {
	if p == nil {
		return fmt.Errorf("noc: nil packet")
	}
	if !ni.noc.InMesh(p.Dst) {
		return fmt.Errorf("noc: destination %v outside mesh", p.Dst)
	}
	if p.Bytes <= 0 {
		return fmt.Errorf("noc: packet needs positive size, got %d", p.Bytes)
	}
	p.Src = ni.at
	if p.ID == 0 {
		ni.nextID++
		p.ID = ni.nextID
	}
	p.Submitted = ni.eng.Now()
	ni.submitted++
	if ni.noc.tel != nil {
		ni.noc.traceSubmit(p)
	}
	ni.queue.Push(p)
	ni.pump()
	return nil
}

// creditReturn is called by the local router when it consumes a flit
// from its local input buffer.
func (ni *NI) creditReturn() {
	ni.credits++
	ni.pump()
}

// pump advances injection: it starts the next packet when the shaper
// admits it and streams its flits as credits allow. pump is idempotent
// and re-arms itself on shaper wait.
func (ni *NI) pump() {
	if ni.pumping {
		return
	}
	ni.pumping = true
	defer func() { ni.pumping = false }()

	for {
		if ni.blocked {
			return
		}
		if ni.current == nil {
			if ni.queue.Len() == 0 {
				return
			}
			head := ni.queue.Peek()
			now := ni.eng.Now()
			if ni.shaper != nil {
				if !ni.shaper.Take(now, float64(head.Bytes)) {
					at := ni.shaper.EarliestConforming(now, float64(head.Bytes))
					if at == sim.Forever {
						return // oversized for the bucket: stuck until re-rated
					}
					ni.eng.At(at, ni.pumpFn)
					return
				}
			}
			ni.queue.Pop()
			ni.current = head
			ni.left = ni.noc.FlitsFor(head.Bytes)
			head.Injected = now
		}
		// Stream flits while local buffer credits last.
		if ni.credits <= 0 {
			return
		}
		total := ni.noc.FlitsFor(ni.current.Bytes)
		f := flit{
			pkt:  ni.current,
			head: ni.left == total,
			tail: ni.left == 1,
		}
		ni.credits--
		ni.left--
		r := ni.noc.router(ni.at)
		r.push(Local, f)
		r.kick()
		if ni.left == 0 {
			ni.injected++
			ni.current = nil
		}
	}
}
