package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// Randomized conservative-lookahead stress: a fixed-seed synthetic
// model of K components scattered across partitions, exchanging
// cross-partition messages, arming and defusing watchdog timers
// (Cancel), running periodic activities (Every), and halting/resuming
// mid-run. The model is built to the kernel's determinism contract —
// per-component private RNGs, commutative same-timestamp deliveries,
// and cross deliveries phase-shifted off local events — so its final
// state must be BIT-IDENTICAL for every partition count, which is the
// tentpole's acceptance property at kernel level. Run under -race it
// also proves the window/mailbox protocol is data-race-free.

// stressComponent is one logical model entity, pinned to a partition.
type stressComponent struct {
	id  int
	eng *Engine
	rng *Rand

	// Commutative accumulators: same-timestamp deliveries may apply in
	// any order without changing the final value.
	sum   uint64
	xor   uint64
	recvd uint64

	ticks    uint64
	watchFed uint64 // watchdogs that fired
	defused  uint64 // watchdogs canceled before firing

	watchdog Handle

	every Handle
}

// stressModel wires K components onto a Parallel kernel.
type stressModel struct {
	par        *Parallel
	comps      []*stressComponent
	lookahead  Duration
	haltScript bool
}

// stressLookahead is even; all local activity lands on even
// timestamps and all cross deliveries on odd ones, so a cross message
// never ties with a local event (same-timestamp cross deliveries only
// meet each other, and those commute). That phase split is the
// model's side of the determinism contract.
const stressLookahead = Duration(64)

func newStressModel(parts, comps int, seed uint64, haltScript bool) *stressModel {
	par := NewParallel(parts, stressLookahead)
	m := &stressModel{par: par, lookahead: stressLookahead, haltScript: haltScript}
	for c := 0; c < comps; c++ {
		sc := &stressComponent{
			id:  c,
			eng: par.Partition(c % parts),
			rng: NewRand(seed + uint64(c)*0x9E37),
		}
		m.comps = append(m.comps, sc)
	}
	for _, sc := range m.comps {
		sc := sc
		// Periodic driver: even period, first firing even.
		period := Duration(2 * (3 + sc.id%7))
		sc.every = sc.eng.EveryAt(period, period, func() { m.tick(sc) })
	}
	if haltScript {
		// Component 1 halts the whole kernel mid-run; the test resumes
		// it afterwards. 1202 is even but tick times vary per
		// component; ties with local events are fine (same partition,
		// fixed seq order).
		h := m.comps[1%len(m.comps)]
		h.eng.At(1202, func() { h.eng.Halt() })
	}
	return m
}

// tick is one component step: local state churn, occasional local
// one-shots, watchdog arm/expire, and cross-partition sends (payload
// or defuse requests).
func (m *stressModel) tick(sc *stressComponent) {
	sc.ticks++
	r := sc.rng.Uint64()
	sc.sum += r
	sc.xor ^= r * 0x2545F4914F6CDD1D

	switch r % 8 {
	case 0, 1:
		// Cross payload to a pseudo-random component: odd delivery
		// offset past the lookahead, key = sender id (per-channel FIFO).
		dst := m.comps[int(r>>32)%len(m.comps)]
		payload := r ^ 0xABCD
		extra := Duration(2*((r>>8)%50) + 1) // odd
		at := sc.eng.Now() + m.lookahead + extra
		sc.eng.CrossAt(dst.eng, at, uint64(sc.id), func() {
			dst.sum += payload
			dst.xor ^= payload
			dst.recvd++
		})
	case 2:
		// Arm a watchdog (even delay, so it never ties with a cross
		// delivery); canceling any previously armed one is part of the
		// churn — Cancel on a fired handle must stay a no-op.
		sc.watchdog.Cancel()
		delay := Duration(2 * (10 + (r>>16)%100))
		sc.watchdog = sc.eng.After(delay, func() { sc.watchFed++ })
	case 3:
		// Ask another component to defuse its watchdog (cancellation
		// executes on the owning partition, at an odd timestamp).
		dst := m.comps[int(r>>24)%len(m.comps)]
		extra := Duration(2*((r>>12)%30) + 1)
		at := sc.eng.Now() + m.lookahead + extra
		sc.eng.CrossAt(dst.eng, at, uint64(sc.id), func() {
			if dst.watchdog != (Handle{}) {
				dst.watchdog.Cancel()
				dst.defused++
			}
		})
	case 4:
		// Local one-shot burst at even offsets.
		for i := Duration(0); i < Duration(1+r%3); i++ {
			sc.eng.After(2+2*i, func() { sc.sum++ })
		}
	}
}

// fingerprint folds the model's complete final state into a hash.
func (m *stressModel) fingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, sc := range m.comps {
		mix(uint64(sc.id))
		mix(sc.sum)
		mix(sc.xor)
		mix(sc.recvd)
		mix(sc.ticks)
		mix(sc.watchFed)
		mix(sc.defused)
		mix(uint64(sc.eng.Now()))
	}
	return h
}

// TestParallelStressBitIdentity: same seed, partition counts 1/2/4/8
// — final state must be bit-identical, and repeat runs at the same
// partition count must agree with themselves (wall-clock interleaving
// must never leak into virtual time).
func TestParallelStressBitIdentity(t *testing.T) {
	const comps = 24
	const horizon = Time(200_000)
	for _, seed := range []uint64{7, 1234, 0xDEADBEEF} {
		var want uint64
		var wantFired uint64
		for _, parts := range []int{1, 2, 4, 8} {
			m := newStressModel(parts, comps, seed, false)
			m.par.RunUntil(horizon)
			got := m.fingerprint()
			fired := m.par.Fired()
			if parts == 1 {
				want, wantFired = got, fired
				continue
			}
			if got != want {
				t.Errorf("seed %d: fingerprint with %d partitions = %#x, sequential = %#x", seed, parts, got, want)
			}
			if fired != wantFired {
				t.Errorf("seed %d: fired with %d partitions = %d, sequential = %d", seed, parts, fired, wantFired)
			}
		}
	}
}

// TestParallelStressOversubscribed pins GOMAXPROCS to 2 for its
// duration, so 8 partition goroutines contend for two Ps whatever the
// host's core count: under -race the detector then sees a
// preemption-heavy interleaving of the barrier and mailbox paths on
// every run, and the final state must still match the 1-partition run.
func TestParallelStressOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const comps = 24
	const horizon = Time(200_000)
	run := func(parts int) (uint64, uint64) {
		m := newStressModel(parts, comps, 0xDEADBEEF, false)
		m.par.RunUntil(horizon)
		return m.fingerprint(), m.par.Fired()
	}
	want, wantFired := run(1)
	if got, fired := run(8); got != want || fired != wantFired {
		t.Errorf("8 partitions on GOMAXPROCS=2: (%#x, %d fired), 1 partition: (%#x, %d fired)", got, fired, want, wantFired)
	}
}

// TestParallelStressRepeatDeterminism: two runs at the same partition
// count are identical even when windows execute on real goroutines.
func TestParallelStressRepeatDeterminism(t *testing.T) {
	const parts, comps = 4, 24
	const horizon = Time(300_000)
	run := func() (uint64, uint64) {
		m := newStressModel(parts, comps, 99, false)
		m.par.RunUntil(horizon)
		return m.fingerprint(), m.par.Fired()
	}
	f1, n1 := run()
	for i := 0; i < 3; i++ {
		f2, n2 := run()
		if f1 != f2 || n1 != n2 {
			t.Fatalf("run %d diverged: (%#x, %d) vs (%#x, %d)", i, f2, n2, f1, n1)
		}
	}
}

// TestParallelStressHaltResume: a mid-run Halt stops every partition
// within lookahead of the halting event; resuming to the original
// horizon converges to the exact state of an uninterrupted run, for
// every partition count.
func TestParallelStressHaltResume(t *testing.T) {
	const comps = 24
	const horizon = Time(100_000)
	for _, parts := range []int{1, 2, 4, 8} {
		parts := parts
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			// Uninterrupted reference (halt event present but inert so
			// the event streams match: Halt only stops the run loop).
			ref := newStressModel(parts, comps, 42, true)
			ref.par.RunUntil(horizon)
			refFP := ref.fingerprint()

			m := newStressModel(parts, comps, 42, true)
			m.par.RunUntil(horizon)
			if parts == 1 {
				// Sequential semantics: the single partition stops at
				// the halting event.
				if got := m.par.Partition(0).Now(); got != 1202 {
					t.Fatalf("halted clock = %v, want 1202", got)
				}
			}
			if !m.par.Halted() {
				t.Fatal("kernel did not halt")
			}
			for i := 0; i < parts; i++ {
				if now := m.par.Partition(i).Now(); now > 1202+stressLookahead {
					t.Errorf("partition %d at %v, beyond halt 1202 + lookahead %v", i, now, stressLookahead)
				}
			}
			// Resume both runs to the original horizon (the reference
			// also stopped at the scripted halt; a second RunUntil
			// carries each to the deadline): states must converge.
			ref.par.RunUntil(horizon)
			m.par.RunUntil(horizon)
			if got, want := m.fingerprint(), ref.fingerprint(); got != want {
				t.Errorf("resumed fingerprint = %#x, reference = %#x", got, want)
			}
			if refFP == 0 {
				t.Error("degenerate reference fingerprint")
			}
		})
	}
}

// TestParallelStressCrossCountsConserve: every payload sent is
// received exactly once — mailboxes neither drop nor duplicate under
// concurrency.
func TestParallelStressCrossCountsConserve(t *testing.T) {
	const comps = 16
	const horizon = Time(150_000)
	recv := func(parts int) uint64 {
		m := newStressModel(parts, comps, 2024, false)
		m.par.RunUntil(horizon)
		var total uint64
		for _, sc := range m.comps {
			total += sc.recvd
		}
		return total
	}
	want := recv(1)
	if want == 0 {
		t.Fatal("stress model produced no cross traffic")
	}
	for _, parts := range []int{2, 4, 8} {
		if got := recv(parts); got != want {
			t.Errorf("received %d cross payloads with %d partitions, want %d", got, parts, want)
		}
	}
}
