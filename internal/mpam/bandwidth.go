package mpam

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// BWConfig sizes a bandwidth-regulated resource (a memory channel or
// an interconnect port).
type BWConfig struct {
	// CapacityBytesPerNS is the raw link/channel capacity.
	CapacityBytesPerNS float64
	// Portions enables memory-bandwidth portion partitioning with this
	// many time quanta (0 disables; max 2^12).
	Portions int
	// QuantumDuration is the length of one bandwidth quantum when
	// portions are enabled.
	QuantumDuration sim.Duration
}

// Validate checks the configuration.
func (c BWConfig) Validate() error {
	if c.CapacityBytesPerNS <= 0 {
		return fmt.Errorf("mpam: bandwidth capacity must be positive, got %g", c.CapacityBytesPerNS)
	}
	if c.Portions < 0 || c.Portions > MaxBandwidthPortions {
		return fmt.Errorf("mpam: bandwidth portions %d outside 0..%d", c.Portions, MaxBandwidthPortions)
	}
	if c.Portions > 0 && c.QuantumDuration <= 0 {
		return fmt.Errorf("mpam: portioned bandwidth needs a positive quantum duration")
	}
	return nil
}

// PartitionBW collects the per-PARTID bandwidth controls (Section
// III-B.4): maximum and minimum bandwidth, proportional stride, and
// priority, plus the bandwidth-portion quanta the partition may use.
type PartitionBW struct {
	// MaxBytesPerNS is the maximum permitted bandwidth under
	// contention; 0 means unlimited.
	MaxBytesPerNS float64
	// MinBytesPerNS is the minimum guaranteed bandwidth under
	// contention; partitions below their minimum are served first.
	MinBytesPerNS float64
	// Stride sets proportional-stride sharing: bandwidth is shared in
	// proportion to 1/Stride among competing partitions of the same
	// priority (classic stride scheduling). 0 defaults to 1.
	Stride float64
	// Priority orders strict arbitration tiers: higher values are
	// served first (priority partitioning).
	Priority int
	// Quanta lists the bandwidth portions (time quanta indices) the
	// partition may use when portioning is enabled. Empty = all.
	Quanta []int
}

func (p PartitionBW) validate(portions int) error {
	if p.MaxBytesPerNS < 0 || p.MinBytesPerNS < 0 || p.Stride < 0 {
		return fmt.Errorf("mpam: negative bandwidth parameter")
	}
	if p.MaxBytesPerNS > 0 && p.MinBytesPerNS > p.MaxBytesPerNS {
		return fmt.Errorf("mpam: min bandwidth %g exceeds max %g", p.MinBytesPerNS, p.MaxBytesPerNS)
	}
	for _, q := range p.Quanta {
		if q < 0 || q >= portions {
			return fmt.Errorf("mpam: quantum %d outside 0..%d", q, portions-1)
		}
	}
	return nil
}

// BWRequest is one transfer submitted to the arbiter.
type BWRequest struct {
	Label  Label
	Bytes  int
	Write  bool
	OnDone func(completed sim.Time)

	submitted sim.Time
}

// partitionState is the arbiter's runtime state for one PARTID.
type partitionState struct {
	cfg   PartitionBW
	queue []*BWRequest

	// maxTokens implements the maximum-bandwidth token bucket.
	maxTokens float64
	// minCredit > 0 means the partition is below its guaranteed
	// minimum and gets first-tier service.
	minCredit float64
	// pass is the stride-scheduling virtual time.
	pass float64

	lastUpdate sim.Time
	served     uint64 // bytes
	requests   uint64
	quanta     map[int]bool
}

// Arbiter multiplexes labelled transfers onto a shared channel,
// enforcing all MPAM bandwidth controls. Deterministic and
// single-threaded, like every simulator in this repository.
type Arbiter struct {
	eng  *sim.Engine
	cfg  BWConfig
	mons *MonitorSet

	parts map[PARTID]*partitionState
	busy  bool
	tel   *telemetryState
}

// NewArbiter builds a bandwidth arbiter. A MonitorSet may be attached
// so served traffic feeds memory-bandwidth usage monitors; pass nil
// for none.
func NewArbiter(eng *sim.Engine, cfg BWConfig, mons *MonitorSet) (*Arbiter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Arbiter{eng: eng, cfg: cfg, mons: mons, parts: make(map[PARTID]*partitionState)}, nil
}

// Configure installs the bandwidth controls for a PARTID.
func (a *Arbiter) Configure(id PARTID, cfg PartitionBW) error {
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
	// A fresh maximum starts with a full burst allowance of one
	// quantum's worth of bytes.
	st.maxTokens = cfg.MaxBytesPerNS * a.burstWindowNS()
	return nil
}

// Partition returns the controls configured for a PARTID, with ok
// false when the arbiter has never seen it.
func (a *Arbiter) Partition(id PARTID) (cfg PartitionBW, ok bool) {
	if st := a.parts[id]; st != nil {
		return st.cfg, true
	}
	return PartitionBW{}, false
}

// burstWindowNS is the token-bucket depth for max-bandwidth
// enforcement, expressed in nanoseconds of credit.
func (a *Arbiter) burstWindowNS() float64 { return 100 }

func (a *Arbiter) state(id PARTID) *partitionState {
	st := a.parts[id]
	if st == nil {
		st = &partitionState{lastUpdate: a.eng.Now()}
		a.parts[id] = st
	}
	return st
}

// Submit enqueues a transfer.
func (a *Arbiter) Submit(r *BWRequest) error {
	if r == nil || r.Bytes <= 0 {
		return fmt.Errorf("mpam: bad bandwidth request")
	}
	r.submitted = a.eng.Now()
	if a.tel != nil {
		a.traceSubmit(r)
	}
	st := a.state(r.Label.PARTID)
	st.queue = append(st.queue, r)
	a.kick()
	return nil
}

// Served returns the bytes and request count delivered for a PARTID.
func (a *Arbiter) Served(id PARTID) (bytes, requests uint64) {
	st := a.parts[id]
	if st == nil {
		return 0, 0
	}
	return st.served, st.requests
}

func (a *Arbiter) kick() {
	if a.busy {
		return
	}
	a.busy = true
	a.eng.At(a.eng.Now(), a.dispatch)
}

// accrue updates a partition's token/credit meters to the current time.
func (a *Arbiter) accrue(st *partitionState) {
	now := a.eng.Now()
	dt := (now - st.lastUpdate).Nanoseconds()
	if dt <= 0 {
		return
	}
	if st.cfg.MaxBytesPerNS > 0 {
		st.maxTokens += st.cfg.MaxBytesPerNS * dt
		if cap := st.cfg.MaxBytesPerNS * a.burstWindowNS(); st.maxTokens > cap {
			st.maxTokens = cap
		}
	}
	if st.cfg.MinBytesPerNS > 0 {
		st.minCredit += st.cfg.MinBytesPerNS * dt
		if cap := st.cfg.MinBytesPerNS * a.burstWindowNS(); st.minCredit > cap {
			st.minCredit = cap
		}
	}
	st.lastUpdate = now
}

// quantumOf returns the current bandwidth quantum index.
func (a *Arbiter) quantumOf(t sim.Time) int {
	if a.cfg.Portions == 0 {
		return -1
	}
	return int((int64(t) / int64(a.cfg.QuantumDuration)) % int64(a.cfg.Portions))
}

// eligible reports whether the partition may be served right now, and
// if not, when it could be.
func (a *Arbiter) eligible(st *partitionState, now sim.Time) (bool, sim.Time) {
	head := st.queue[0]
	retry := sim.Forever

	// Maximum-bandwidth partitioning: the head transfer must conform.
	if st.cfg.MaxBytesPerNS > 0 && st.maxTokens < float64(head.Bytes) {
		needNS := (float64(head.Bytes) - st.maxTokens) / st.cfg.MaxBytesPerNS
		wait := sim.NS(needNS)
		if wait <= 0 {
			// Token accrual approaches the requirement from below in
			// floating-point steps, so the last shortfall can round to
			// a zero wait. The retry must still advance virtual time,
			// or the dispatcher re-arms at the same instant forever.
			wait = sim.Picosecond
		}
		return false, now + wait
	}

	// Bandwidth-portion partitioning: the current quantum must be one
	// of the partition's (work conservation handled by the caller when
	// no queued partition holds the quantum).
	if a.cfg.Portions > 0 && st.quanta != nil {
		q := a.quantumOf(now)
		if !st.quanta[q] {
			// Next quantum boundary; the dispatcher re-evaluates there.
			next := (int64(now)/int64(a.cfg.QuantumDuration) + 1) * int64(a.cfg.QuantumDuration)
			return false, sim.Time(next)
		}
	}
	return true, retry
}

// dispatch picks and serves the next transfer per the combined
// controls: strict priority first, then below-minimum partitions, then
// stride order.
func (a *Arbiter) dispatch() {
	now := a.eng.Now()
	type cand struct {
		id PARTID
		st *partitionState
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
			// Track quantum-blocked partitions separately: if nobody
			// holds the current quantum, serve them anyway (work
			// conserving), max-limit permitting.
			if a.cfg.Portions > 0 && st.quanta != nil &&
				(st.cfg.MaxBytesPerNS == 0 || st.maxTokens >= float64(st.queue[0].Bytes)) {
				quantumHolders = append(quantumHolders, cand{id, st})
			}
			continue
		}
		cands = append(cands, cand{id, st})
	}
	if len(cands) == 0 && len(quantumHolders) > 0 {
		cands = quantumHolders // work conservation across unheld quanta
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
		if better(c.st, best.st) {
			best = c
		}
	}

	req := best.st.queue[0]
	best.st.queue = best.st.queue[1:]
	bytes := float64(req.Bytes)
	best.st.maxTokens -= bytes
	best.st.minCredit -= bytes
	if best.st.minCredit < -best.st.cfg.MinBytesPerNS*a.burstWindowNS() {
		best.st.minCredit = -best.st.cfg.MinBytesPerNS * a.burstWindowNS()
	}
	stride := best.st.cfg.Stride
	if stride <= 0 {
		stride = 1
	}
	best.st.pass += bytes * stride
	best.st.served += uint64(req.Bytes)
	best.st.requests++

	svc := sim.NS(bytes / a.cfg.CapacityBytesPerNS)
	a.eng.After(svc, func() {
		if a.mons != nil {
			a.mons.RecordBandwidth(req.Label, req.Bytes, req.Write)
		}
		if a.tel != nil {
			a.traceServe(req, a.eng.Now())
		}
		if req.OnDone != nil {
			req.OnDone(a.eng.Now())
		}
		a.dispatch()
	})
}

// better orders candidate partitions: higher priority, then
// below-minimum, then smaller stride pass.
func better(x, y *partitionState) bool {
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

// Utilization returns total served bytes divided by capacity*elapsed.
func (a *Arbiter) Utilization() float64 {
	now := a.eng.Now().Nanoseconds()
	if now <= 0 {
		return 0
	}
	var total uint64
	for _, st := range a.parts {
		total += st.served
	}
	u := float64(total) / (a.cfg.CapacityBytesPerNS * now)
	return math.Min(u, 1)
}
