package noc

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refGrant is output p's arbitration as it stood before the ready
// mask: the wormhole lock, else a linear scan of all five inputs from
// the round-robin pointer for a packet head routed to p. It is the
// reference router.grant must match pick for pick.
func refGrant(r *router, p Port) Port {
	o := &r.out[p]
	if o.locked {
		if r.in[o.input].Len() > 0 {
			return o.input
		}
		return -1
	}
	for i := 0; i < int(numPorts); i++ {
		cand := Port((int(o.rr) + i) % int(numPorts))
		q := &r.in[cand]
		if q.Len() == 0 || !q.Peek().head {
			continue
		}
		if routeXY(r.at, q.Peek().pkt.Dst) != p {
			continue
		}
		o.rr = Port((int(cand) + 1) % int(numPorts))
		return cand
	}
	return -1
}

// wantReady recomputes r's ready masks from its input queues.
func wantReady(r *router) (ready [numPorts]uint8) {
	for i := Port(0); i < numPorts; i++ {
		if q := &r.in[i]; q.Len() > 0 && q.Peek().head {
			ready[routeXY(r.at, q.Peek().pkt.Dst)] |= 1 << i
		}
	}
	return ready
}

// grantEvent is one flit an output forwards: which output, from which
// input, at which step.
type grantEvent struct {
	out, in Port
	step    int
}

// arbStats counts the situations a grant-order run went through, so
// the test can show it exercised them.
type arbStats struct {
	refused, lockedWaits int
}

// driveRouter runs random wormhole traffic through one router for
// steps cycles with the given arbitration and returns its grants. Each
// input receives whole packets of 1–4 flits in order, at a random rate,
// into a 4-flit buffer; each output's downstream returns credits at a
// random rate and goes through stalls where it returns none, so heads
// wait on exhausted credits; a forwarded flit keeps its output busy for
// one or two cycles. The router is the real one, so push and pop keep
// its ready masks, which are checked against the queues every cycle.
func driveRouter(t *testing.T, seed int64, steps int, grant func(*router, Port) Port) ([]grantEvent, arbStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := &router{at: Coord{2, 2}}
	const buffer, maxCredits = 4, 3
	var (
		left    [numPorts]int // flits of the packet each input is receiving
		pkt     [numPorts]*Packet
		credits [numPorts]int
		stall   [numPorts]int
		busy    [numPorts]int
		rate    [numPorts]float64
		grants  []grantEvent
		st      arbStats
	)
	for p := range credits {
		credits[p] = maxCredits
		rate[p] = 0.2 + 0.8*rng.Float64()
	}
	for step := 0; step < steps; step++ {
		for i := Port(0); i < numPorts; i++ {
			if r.in[i].Len() >= buffer || rng.Float64() > rate[i] {
				continue
			}
			n := 0
			if left[i] == 0 {
				n = 1 + rng.Intn(4)
				pkt[i] = &Packet{Dst: Coord{rng.Intn(5), rng.Intn(5)}}
				left[i] = n
			}
			r.push(i, flit{pkt: pkt[i], head: n > 0, tail: left[i] == 1})
			left[i]--
		}
		for p := Port(0); p < numPorts; p++ {
			switch {
			case stall[p] > 0:
				stall[p]--
			case rng.Intn(40) == 0:
				stall[p] = 5 + rng.Intn(30)
			case credits[p] < maxCredits && rng.Intn(3) == 0:
				credits[p]++
			}
		}
		for p := Port(0); p < numPorts; p++ {
			if busy[p] > 0 {
				busy[p]--
				continue
			}
			o := &r.out[p]
			locked := o.locked
			in := grant(r, p)
			if in < 0 {
				if locked {
					st.lockedWaits++
				}
				continue
			}
			if credits[p] <= 0 {
				st.refused++
				continue
			}
			f := r.pop(in)
			credits[p]--
			if f.head {
				o.locked, o.input = true, in
			}
			if f.tail {
				o.locked = false
			}
			busy[p] = rng.Intn(2)
			grants = append(grants, grantEvent{p, in, step})
		}
		if got, want := r.ready, wantReady(r); got != want {
			t.Fatalf("seed %d step %d: ready masks %05b, queues say %05b", seed, step, got, want)
		}
	}
	return grants, st
}

// TestGrantOrderMatchesLinearScan checks the ready-mask arbiter against
// the linear scan it replaced: under random wormhole traffic with
// credit stalls, the (output, input, cycle) grant sequence is
// identical, including after picks the credit check refuses (the
// round-robin pointer still moves past them).
func TestGrantOrderMatchesLinearScan(t *testing.T) {
	var total arbStats
	grants := 0
	for seed := int64(1); seed <= 50; seed++ {
		want, _ := driveRouter(t, seed, 2000, refGrant)
		got, st := driveRouter(t, seed, 2000, (*router).grant)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d grants, linear scan %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: grant %d is %+v, linear scan %+v", seed, k, got[k], want[k])
			}
		}
		total.refused += st.refused
		total.lockedWaits += st.lockedWaits
		grants += len(got)
	}
	if total.refused == 0 || total.lockedWaits == 0 {
		t.Fatalf("traffic never stalled: %d credit-refused picks, %d locked waits", total.refused, total.lockedWaits)
	}
	t.Logf("%d grants matched; %d credit-refused picks, %d locked waits", grants, total.refused, total.lockedWaits)
}

// TestReadyMasksTrackFabric runs random traffic over sequential and
// partitioned meshes with scarce buffers and checks every router's
// ready masks against its queues at every flit time, so each push site
// (router-to-router, NI injection and the cross-cut mailbox arrival)
// keeps them in step.
func TestReadyMasksTrackFabric(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, FlitBytes: 16, FlitTime: sim.NS(1), BufferFlits: 2}
	const horizon = 3 * sim.Microsecond
	check := func(n *NoC, eng *sim.Engine) func() {
		return func() {
			for _, r := range n.routers {
				if r.eng != eng {
					continue // another partition's, possibly mid-round
				}
				if got, want := r.ready, wantReady(r); got != want {
					t.Errorf("router %v at %v: ready masks %05b, queues say %05b", r.at, r.eng.Now(), got, want)
				}
			}
		}
	}
	traffic := func(n *NoC) {
		rng := rand.New(rand.NewSource(3))
		for k := 0; k < 400; k++ {
			src := Coord{rng.Intn(cfg.Width), rng.Intn(cfg.Height)}
			dst := Coord{rng.Intn(cfg.Width), rng.Intn(cfg.Height)}
			sendAt(t, n, sim.Time(rng.Intn(int(sim.US(2)))), src, dst, 16*(1+rng.Intn(6)))
		}
	}
	eng := sim.NewEngine()
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traffic(n)
	every(eng, cfg.FlitTime, horizon, check(n, eng))
	eng.RunUntil(horizon)

	par, pn := buildPartitioned(t, cfg)
	traffic(pn)
	for k := 0; k < par.Partitions(); k++ {
		every(par.Partition(k), cfg.FlitTime, horizon, check(pn, par.Partition(k)))
	}
	par.RunUntil(horizon)
	if pn.Delivered() == 0 || n.Delivered() == 0 {
		t.Fatal("no packet delivered")
	}
}

// every runs fn on eng each period until horizon.
func every(eng *sim.Engine, period sim.Duration, horizon sim.Time, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if eng.Now()+period <= horizon {
			eng.After(period, tick)
		}
	}
	eng.At(0, tick)
}
