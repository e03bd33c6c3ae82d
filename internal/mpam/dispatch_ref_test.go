package mpam

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refArbiter is the dispatcher as it stood before partitions moved to
// a PARTID-ordered slice with head-indexed queues: every dispatch
// rebuilds and sorts the PARTID list from a map, gathers candidates
// into fresh slices and serves through per-transfer closures. It is
// kept verbatim, minus monitors and telemetry, as the reference the
// allocation-free Arbiter must match grant for grant.
type refArbiter struct {
	eng   *sim.Engine
	cfg   BWConfig
	parts map[PARTID]*refPartition
	busy  bool
}

type refPartition struct {
	cfg        PartitionBW
	queue      []*BWRequest
	maxTokens  float64
	minCredit  float64
	pass       float64
	lastUpdate sim.Time
	quanta     map[int]bool
}

func newRefArbiter(eng *sim.Engine, cfg BWConfig) *refArbiter {
	return &refArbiter{eng: eng, cfg: cfg, parts: make(map[PARTID]*refPartition)}
}

func (a *refArbiter) Configure(id PARTID, cfg PartitionBW) error {
	if err := cfg.validate(a.cfg.Portions); err != nil {
		return err
	}
	st := a.state(id)
	st.cfg = cfg
	st.quanta = nil
	if len(cfg.Quanta) > 0 {
		st.quanta = make(map[int]bool, len(cfg.Quanta))
		for _, q := range cfg.Quanta {
			st.quanta[q] = true
		}
	}
	st.maxTokens = cfg.MaxBytesPerNS * 100
	return nil
}

func (a *refArbiter) state(id PARTID) *refPartition {
	st := a.parts[id]
	if st == nil {
		st = &refPartition{lastUpdate: a.eng.Now()}
		a.parts[id] = st
	}
	return st
}

func (a *refArbiter) Submit(r *BWRequest) error {
	r.submitted = a.eng.Now()
	st := a.state(r.Label.PARTID)
	st.queue = append(st.queue, r)
	if !a.busy {
		a.busy = true
		a.eng.At(a.eng.Now(), a.dispatch)
	}
	return nil
}

func (a *refArbiter) accrue(st *refPartition) {
	now := a.eng.Now()
	dt := (now - st.lastUpdate).Nanoseconds()
	if dt <= 0 {
		return
	}
	if st.cfg.MaxBytesPerNS > 0 {
		st.maxTokens += st.cfg.MaxBytesPerNS * dt
		if cap := st.cfg.MaxBytesPerNS * 100; st.maxTokens > cap {
			st.maxTokens = cap
		}
	}
	if st.cfg.MinBytesPerNS > 0 {
		st.minCredit += st.cfg.MinBytesPerNS * dt
		if cap := st.cfg.MinBytesPerNS * 100; st.minCredit > cap {
			st.minCredit = cap
		}
	}
	st.lastUpdate = now
}

func (a *refArbiter) eligible(st *refPartition, now sim.Time) (bool, sim.Time) {
	head := st.queue[0]
	if st.cfg.MaxBytesPerNS > 0 && st.maxTokens < float64(head.Bytes) {
		wait := sim.NS((float64(head.Bytes) - st.maxTokens) / st.cfg.MaxBytesPerNS)
		if wait <= 0 {
			wait = sim.Picosecond
		}
		return false, now + wait
	}
	if a.cfg.Portions > 0 && st.quanta != nil {
		q := int((int64(now) / int64(a.cfg.QuantumDuration)) % int64(a.cfg.Portions))
		if !st.quanta[q] {
			next := (int64(now)/int64(a.cfg.QuantumDuration) + 1) * int64(a.cfg.QuantumDuration)
			return false, sim.Time(next)
		}
	}
	return true, sim.Forever
}

func (a *refArbiter) dispatch() {
	now := a.eng.Now()
	type cand struct {
		id PARTID
		st *refPartition
	}
	var cands []cand
	var quantumHolders []cand
	earliestRetry := sim.Forever

	ids := make([]PARTID, 0, len(a.parts))
	for id := range a.parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		st := a.parts[id]
		if len(st.queue) == 0 {
			continue
		}
		a.accrue(st)
		ok, retry := a.eligible(st, now)
		if !ok {
			if retry < earliestRetry {
				earliestRetry = retry
			}
			if a.cfg.Portions > 0 && st.quanta != nil &&
				(st.cfg.MaxBytesPerNS == 0 || st.maxTokens >= float64(st.queue[0].Bytes)) {
				quantumHolders = append(quantumHolders, cand{id, st})
			}
			continue
		}
		cands = append(cands, cand{id, st})
	}
	if len(cands) == 0 && len(quantumHolders) > 0 {
		cands = quantumHolders
	}
	if len(cands) == 0 {
		a.busy = false
		if earliestRetry != sim.Forever {
			a.eng.At(earliestRetry, func() {
				if !a.busy {
					a.busy = true
					a.dispatch()
				}
			})
		}
		return
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if refBetter(c.st, best.st) {
			best = c
		}
	}

	req := best.st.queue[0]
	best.st.queue = best.st.queue[1:]
	bytes := float64(req.Bytes)
	best.st.maxTokens -= bytes
	best.st.minCredit -= bytes
	if best.st.minCredit < -best.st.cfg.MinBytesPerNS*100 {
		best.st.minCredit = -best.st.cfg.MinBytesPerNS * 100
	}
	stride := best.st.cfg.Stride
	if stride <= 0 {
		stride = 1
	}
	best.st.pass += bytes * stride

	svc := sim.NS(bytes / a.cfg.CapacityBytesPerNS)
	a.eng.After(svc, func() {
		if req.OnDone != nil {
			req.OnDone(a.eng.Now())
		}
		a.dispatch()
	})
}

func refBetter(x, y *refPartition) bool {
	if x.cfg.Priority != y.cfg.Priority {
		return x.cfg.Priority > y.cfg.Priority
	}
	xUnder := x.cfg.MinBytesPerNS > 0 && x.minCredit > 0
	yUnder := y.cfg.MinBytesPerNS > 0 && y.minCredit > 0
	if xUnder != yUnder {
		return xUnder
	}
	if x.pass != y.pass {
		return x.pass < y.pass
	}
	return false
}

// bwSubmitter is what both dispatchers offer a traffic generator.
type bwSubmitter interface {
	Configure(PARTID, PartitionBW) error
	Submit(*BWRequest) error
}

// bwGrant is one served transfer as its requester sees it.
type bwGrant struct {
	id   PARTID
	seq  int
	done sim.Time
}

// bwScenario is one randomized arbiter configuration and the traffic
// that drives it.
type bwScenario struct {
	cfg   BWConfig
	parts map[PARTID]PartitionBW
	// flows submits per PARTID: an open-loop burst at a random instant,
	// then a closed loop that resubmits on completion after think.
	flows []bwFlow
}

type bwFlow struct {
	id     PARTID
	bytes  []int // request sizes, cycled
	start  sim.Time
	burst  int
	think  sim.Duration
	rounds int
}

// randomBWScenario draws a configuration that mixes every control the
// dispatcher arbitrates on. Caps come in two depths: a bucket shallower
// than one request (0.1–0.6 B/ns against 64–256 B requests: the
// partition never conforms, so it re-arms its retry for ever) and a
// normal one whose float accrual can fall a rounding error short of a
// request (the 1 ps retry clamp).
func randomBWScenario(rng *rand.Rand) bwScenario {
	sc := bwScenario{parts: map[PARTID]PartitionBW{}}
	sc.cfg.CapacityBytesPerNS = []float64{1, 4, 8, 12.8}[rng.Intn(4)]
	if rng.Intn(2) == 0 {
		sc.cfg.Portions = 2 + rng.Intn(6)
		sc.cfg.QuantumDuration = sim.NS(float64(20 + rng.Intn(200)))
	}
	n := 2 + rng.Intn(6)
	for k := 0; k < n; k++ {
		id := PARTID(rng.Intn(40))
		var p PartitionBW
		p.Priority = rng.Intn(3)
		switch rng.Intn(4) {
		case 0:
			p.MaxBytesPerNS = 0.1 + rng.Float64()*0.5 // shallower than any request
		case 1:
			p.MaxBytesPerNS = 0.7 + rng.Float64()*3
		}
		if rng.Intn(3) == 0 {
			p.MinBytesPerNS = rng.Float64() * 2
			if p.MaxBytesPerNS > 0 && p.MinBytesPerNS > p.MaxBytesPerNS {
				p.MinBytesPerNS = p.MaxBytesPerNS
			}
		}
		if rng.Intn(2) == 0 {
			p.Stride = []float64{0.5, 1, 2, 3}[rng.Intn(4)]
		}
		if sc.cfg.Portions > 0 && rng.Intn(3) != 0 {
			for q := 0; q < sc.cfg.Portions; q++ {
				if rng.Intn(3) == 0 {
					p.Quanta = append(p.Quanta, q)
				}
			}
		}
		sc.parts[id] = p
		f := bwFlow{
			id:     id,
			start:  sim.NS(float64(rng.Intn(500))),
			burst:  rng.Intn(8),
			think:  sim.NS(float64(rng.Intn(300))),
			rounds: 5 + rng.Intn(40),
		}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			f.bytes = append(f.bytes, []int{16, 64, 64, 128, 256}[rng.Intn(5)])
		}
		sc.flows = append(sc.flows, f)
	}
	// An unconfigured PARTID (default controls) shares the channel too.
	sc.flows = append(sc.flows, bwFlow{id: 41, bytes: []int{64}, burst: 3, think: sim.NS(50), rounds: 20})
	return sc
}

// runBWScenario drives one dispatcher through sc on its own engine and
// returns the grants in completion order.
func runBWScenario(t *testing.T, sc bwScenario, eng *sim.Engine, arb bwSubmitter, horizon sim.Time) []bwGrant {
	t.Helper()
	ids := make([]PARTID, 0, len(sc.parts))
	for id := range sc.parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := arb.Configure(id, sc.parts[id]); err != nil {
			t.Fatal(err)
		}
	}
	var grants []bwGrant
	for _, f := range sc.flows {
		f := f
		seq := 0
		var submit func()
		left := f.rounds
		submit = func() {
			n := seq
			seq++
			_ = arb.Submit(&BWRequest{
				Label: Label{PARTID: f.id},
				Bytes: f.bytes[n%len(f.bytes)],
				OnDone: func(done sim.Time) {
					grants = append(grants, bwGrant{f.id, n, done})
					if left > 0 {
						left--
						eng.After(f.think, submit)
					}
				},
			})
		}
		eng.At(f.start, func() {
			for i := 0; i <= f.burst; i++ {
				submit()
			}
		})
	}
	eng.RunUntil(horizon)
	return grants
}

// TestDispatchMatchesReference checks the allocation-free dispatcher
// against the map-and-sort one on randomized configurations: the
// served (PARTID, request, completion time) sequence must be identical.
func TestDispatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const horizon = 40 * sim.Microsecond
	var total int
	for i := 0; i < 300; i++ {
		sc := randomBWScenario(rng)
		refEng := sim.NewEngine()
		want := runBWScenario(t, sc, refEng, newRefArbiter(refEng, sc.cfg), horizon)
		eng := sim.NewEngine()
		arb, err := NewArbiter(eng, sc.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := runBWScenario(t, sc, eng, arb, horizon)
		if len(got) != len(want) {
			t.Fatalf("scenario %d: %d grants, reference %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("scenario %d: grant %d is %+v, reference %+v", i, k, got[k], want[k])
			}
		}
		if refEng.Fired() != eng.Fired() {
			t.Fatalf("scenario %d: %d events fired, reference %d", i, eng.Fired(), refEng.Fired())
		}
		total += len(want)
	}
	t.Logf("%d grants matched over 300 scenarios", total)
}

// TestDispatchAllocFree checks that a steady-state dispatch, with its
// completion callback and a resubmission, allocates nothing.
func TestDispatchAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	arb, err := NewArbiter(eng, BWConfig{CapacityBytesPerNS: 8, Portions: 4, QuantumDuration: sim.NS(100)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []PartitionBW{
		{Priority: 1, MaxBytesPerNS: 2},
		{MinBytesPerNS: 1, Stride: 2},
		{Quanta: []int{1, 3}},
		{MaxBytesPerNS: 0.15}, // never conforms: re-arms its retry
	}
	reqs := make([]*BWRequest, 0, 3*len(cfgs))
	for i, c := range cfgs {
		id := PARTID(i + 1)
		if err := arb.Configure(id, c); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			r := &BWRequest{Label: Label{PARTID: id}, Bytes: 64}
			r.OnDone = func(sim.Time) { _ = arb.Submit(r) }
			reqs = append(reqs, r)
		}
	}
	for _, r := range reqs {
		if err := arb.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(20 * sim.Microsecond) // warm the queues and the event slab
	horizon := eng.Now()
	allocs := testing.AllocsPerRun(100, func() {
		horizon += sim.Microsecond
		eng.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Errorf("steady-state dispatch allocates %v objects per microsecond, want 0", allocs)
	}
	if served, _ := arb.Served(2); served == 0 {
		t.Error("no transfer served")
	}
}
