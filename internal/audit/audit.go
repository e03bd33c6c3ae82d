// Package audit is the runtime predictability auditor: the piece that
// closes the paper's identification → monitoring → control loop
// (Sec. V, Figs 6–7) in software. The analytic worst-case delay
// bounds of Sec. IV-A are only useful if the running system can be
// checked against them while it runs, so the auditor
//
//   - captures, at application registration, each app's analytic
//     Network Calculus delay bound and budgeted bandwidth (bound
//     conformance),
//   - folds every completed transaction into online max / percentile
//     latency state and emits a structured violation event the moment
//     an observation exceeds its bound — not at run end,
//   - attributes each transaction's latency to the pipeline stage
//     where the time was spent (L3 hit service, MemGuard throttle
//     stall, NoC request traversal, memory-channel arbitration, DRAM
//     bank queueing, DRAM service, NoC response traversal), aggregated
//     per app into attribution histograms so a violation report says
//     *where* the time went.
//
// Observations are pushed from the simulation goroutine; snapshots may
// be pulled concurrently from an exporter goroutine (see Server). All
// mutable state is mutex-guarded with locks never held across
// callbacks. After registration the observe path allocates only when
// one of an app's histograms sees its first value in a sub-bucket and
// its index slice is full (one counter, plus a header for a new
// octave); steady-state observation allocates nothing, preserving the
// repository's hot-path guarantees.
package audit

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Stage indexes one leg of a transaction's end-to-end latency.
type Stage int

// Attribution stages, in pipeline order.
const (
	// StageL3Hit is the shared-cache hit service time (hits only).
	StageL3Hit Stage = iota
	// StageMemGuard is the regulator's throttle stall before the miss
	// may leave the core.
	StageMemGuard
	// StageNoCRequest is the request's NI-submission-to-ejection time
	// across the mesh (includes injection shaping).
	StageNoCRequest
	// StageChannel is the wait at the memory node: MPAM bandwidth
	// arbitration plus controller-queue backpressure retries.
	StageChannel
	// StageDRAMQueue is the bank-queue wait inside the controller
	// (behind other requests, refreshes, and write drains).
	StageDRAMQueue
	// StageDRAMService is the request's own device occupancy.
	StageDRAMService
	// StageNoCResponse is the read data's return traversal.
	StageNoCResponse
	// NumStages sizes Breakdown.
	NumStages
)

var stageNames = [NumStages]string{
	"l3_hit", "memguard_stall", "noc_request", "channel_wait",
	"dram_queue", "dram_service", "noc_response",
}

// String returns the stage's snake_case name (used in metric keys).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Breakdown decomposes one transaction's latency by stage. The stages
// partition the observation interval exactly: Total() equals the
// observed end-to-end latency to the picosecond.
type Breakdown [NumStages]sim.Duration

// Total sums the stages.
func (b Breakdown) Total() sim.Duration {
	var t sim.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Bound is the per-application contract captured at registration.
type Bound struct {
	// DelayBoundNS is the analytic NC delay bound on one transaction's
	// end-to-end latency; +Inf (or 0) disables conformance checking
	// for the app while attribution still accumulates.
	DelayBoundNS float64
	// BudgetBytesPerPeriod is the app's MemGuard bandwidth budget
	// (0 = unregulated), recorded so violation reports carry the
	// control settings in force.
	BudgetBytesPerPeriod int
}

// Violation is the structured event emitted when an observation
// exceeds its app's bound.
type Violation struct {
	// Seq is the auditor-wide violation ordinal (1-based).
	Seq uint64 `json:"seq"`
	// At is the sim time the violating transaction completed.
	At sim.Time `json:"at_ps"`
	// App names the violating application.
	App string `json:"app"`
	// ObservedNS and BoundNS are the offending latency and its bound.
	ObservedNS float64 `json:"observed_ns"`
	BoundNS    float64 `json:"bound_ns"`
	// HeadroomNS = BoundNS - ObservedNS (negative in a violation).
	HeadroomNS float64 `json:"headroom_ns"`
	// Breakdown is the per-stage attribution of the observation.
	Breakdown Breakdown `json:"breakdown_ps"`
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("violation #%d t=%v app=%s observed=%.1fns bound=%.1fns headroom=%.1fns worst-stage=%s",
		v.Seq, v.At, v.App, v.ObservedNS, v.BoundNS, v.HeadroomNS, v.worstStage())
}

// worstStage names the stage holding the largest share of the
// violating observation.
func (v Violation) worstStage() Stage {
	worst := Stage(0)
	for s := Stage(1); s < NumStages; s++ {
		if v.Breakdown[s] > v.Breakdown[worst] {
			worst = s
		}
	}
	return worst
}

// Config parameterizes an Auditor.
type Config struct {
	// OnViolation, when non-nil, runs synchronously (on the observing
	// goroutine, outside all auditor locks) for every violation — the
	// "emit the moment it happens" hook CLIs print from.
	OnViolation func(Violation)
	// MaxViolations bounds the retained violation events (the
	// counters keep counting past it); <= 0 defaults to 128.
	MaxViolations int
}

// Auditor audits a set of registered applications.
type Auditor struct {
	cfg Config

	mu         sync.Mutex
	apps       map[string]*AppAuditor
	order      []string
	violations []Violation
	seq        uint64
	// free is the rest of the array Reserve allocated; Register hands
	// app handles out from it before allocating one by one.
	free []AppAuditor
}

// New builds an empty auditor.
func New(cfg Config) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 128
	}
	return &Auditor{cfg: cfg, apps: make(map[string]*AppAuditor)}
}

// Reserve sizes an empty auditor for n registrations: the app table
// does not rehash and Register hands the n app handles out from one
// array. Once an app is registered it does nothing.
func (a *Auditor) Reserve(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.apps) == 0 {
		a.apps = make(map[string]*AppAuditor, n)
		a.order = make([]string, 0, n)
		a.free = make([]AppAuditor, n)
	}
}

// Register captures an app's contract and returns its per-app handle
// (idempotent per name: re-registering replaces the bound but keeps
// accumulated state). The handle's Observe is the auditor's hot path.
func (a *Auditor) Register(app string, b Bound) *AppAuditor {
	a.mu.Lock()
	defer a.mu.Unlock()
	aa := a.apps[app]
	if aa == nil {
		if len(a.free) > 0 {
			aa, a.free = &a.free[0], a.free[1:]
		} else {
			aa = new(AppAuditor)
		}
		aa.au, aa.name = a, app
		a.apps[app] = aa
		a.order = append(a.order, app)
	}
	aa.mu.Lock()
	aa.bound = b
	aa.boundPS = boundPS(b.DelayBoundNS)
	aa.mu.Unlock()
	return aa
}

// boundPS converts a ns bound to the picosecond compare value, with
// non-positive and infinite bounds disabling the check.
func boundPS(ns float64) sim.Duration {
	if ns <= 0 || math.IsInf(ns, 1) || ns >= float64(sim.Forever)/1000 {
		return sim.Forever
	}
	return sim.NS(ns)
}

// App returns a registered app's handle, nil if unknown.
func (a *Auditor) App(name string) *AppAuditor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.apps[name]
}

// Apps returns the registered app names in registration order.
func (a *Auditor) Apps() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.order...)
}

// Violations returns a copy of the retained violation events, in
// emission order.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.violations...)
}

// TotalViolations returns the number of violations emitted (including
// any beyond the retention cap).
func (a *Auditor) TotalViolations() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// record assigns the violation its ordinal and retains it.
func (a *Auditor) record(v *Violation) {
	a.mu.Lock()
	a.seq++
	v.Seq = a.seq
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, *v)
	}
	a.mu.Unlock()
}

// StageStat aggregates one attribution stage for one app.
type StageStat struct {
	Stage   Stage        `json:"stage"`
	TotalPS sim.Duration `json:"total_ps"`
	MaxPS   sim.Duration `json:"max_ps"`
	Share   float64      `json:"share"` // of the app's total observed latency
}

// AppSnapshot is a point-in-time copy of one app's audit state, safe
// to read while the simulation keeps observing.
type AppSnapshot struct {
	App        string               `json:"app"`
	Bound      Bound                `json:"bound"`
	Observed   uint64               `json:"observed"`
	Violations uint64               `json:"violations"`
	MaxNS      float64              `json:"max_ns"`
	P95NS      float64              `json:"p95_ns"`
	HeadroomNS float64              `json:"headroom_ns"` // bound - observed max; +Inf when unbounded
	Stages     [NumStages]StageStat `json:"stages"`
}

// AppAuditor accumulates one application's conformance and
// attribution state. Observe is safe to call from the simulation
// goroutine while Snapshot is called from an exporter goroutine.
type AppAuditor struct {
	au   *Auditor
	name string

	mu         sync.Mutex
	bound      Bound
	boundPS    sim.Duration
	observed   uint64
	violations uint64
	maxLat     sim.Duration
	stageSum   [NumStages]sim.Duration
	stageMax   [NumStages]sim.Duration

	// Held by value so an app's state is one allocation, or none from a
	// reserved array.
	hist       telemetry.Histogram
	stageHists [NumStages]telemetry.Histogram
}

// Name returns the app's name.
func (aa *AppAuditor) Name() string { return aa.name }

// Bound returns the registered contract.
func (aa *AppAuditor) Bound() Bound {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	return aa.bound
}

// Observe folds one completed transaction into the app's state: online
// max and histogram updates, per-stage attribution, and — when the
// total exceeds the registered bound — an immediate violation event.
// Allocation-free in steady state.
func (aa *AppAuditor) Observe(at sim.Time, b Breakdown) {
	total := b.Total()

	aa.mu.Lock()
	aa.observed++
	if total > aa.maxLat {
		aa.maxLat = total
	}
	for s := Stage(0); s < NumStages; s++ {
		aa.stageSum[s] += b[s]
		if b[s] > aa.stageMax[s] {
			aa.stageMax[s] = b[s]
		}
	}
	violated := total > aa.boundPS
	var v Violation
	if violated {
		aa.violations++
		v = Violation{
			At:         at,
			App:        aa.name,
			ObservedNS: total.Nanoseconds(),
			BoundNS:    aa.bound.DelayBoundNS,
			HeadroomNS: aa.bound.DelayBoundNS - total.Nanoseconds(),
			Breakdown:  b,
		}
	}
	aa.mu.Unlock()

	// Histograms carry their own locks; keep them outside aa.mu.
	aa.hist.Record(int64(total))
	for s := Stage(0); s < NumStages; s++ {
		if b[s] != 0 {
			aa.stageHists[s].Record(int64(b[s]))
		}
	}

	if violated {
		aa.au.record(&v)
		if f := aa.au.cfg.OnViolation; f != nil {
			f(v)
		}
	}
}

// Violations returns the app's violation count.
func (aa *AppAuditor) Violations() uint64 {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	return aa.violations
}

// LatencyHistogram exposes the app's end-to-end latency histogram
// (picoseconds) for registry adoption.
func (aa *AppAuditor) LatencyHistogram() *telemetry.Histogram { return &aa.hist }

// StageHistogram exposes one stage's attribution histogram.
func (aa *AppAuditor) StageHistogram(s Stage) *telemetry.Histogram {
	if s < 0 || s >= NumStages {
		return nil
	}
	return &aa.stageHists[s]
}

// Snapshot copies the app's current audit state.
func (aa *AppAuditor) Snapshot() AppSnapshot {
	aa.mu.Lock()
	snap := AppSnapshot{
		App:        aa.name,
		Bound:      aa.bound,
		Observed:   aa.observed,
		Violations: aa.violations,
		MaxNS:      aa.maxLat.Nanoseconds(),
	}
	var grand sim.Duration
	for s := Stage(0); s < NumStages; s++ {
		snap.Stages[s] = StageStat{Stage: s, TotalPS: aa.stageSum[s], MaxPS: aa.stageMax[s]}
		grand += aa.stageSum[s]
	}
	if grand > 0 {
		for s := range snap.Stages {
			snap.Stages[s].Share = float64(snap.Stages[s].TotalPS) / float64(grand)
		}
	}
	if aa.boundPS == sim.Forever {
		snap.HeadroomNS = math.Inf(1)
	} else {
		snap.HeadroomNS = aa.bound.DelayBoundNS - snap.MaxNS
	}
	aa.mu.Unlock()
	snap.P95NS = sim.Duration(aa.hist.Quantile(0.95)).Nanoseconds()
	return snap
}

// Snapshot copies every app's state, in registration order.
func (a *Auditor) Snapshot() []AppSnapshot {
	a.mu.Lock()
	apps := make([]*AppAuditor, 0, len(a.order))
	for _, name := range a.order {
		apps = append(apps, a.apps[name])
	}
	a.mu.Unlock()
	out := make([]AppSnapshot, len(apps))
	for i, aa := range apps {
		out[i] = aa.Snapshot()
	}
	return out
}

// PublishMetrics mirrors the auditor's state into a telemetry
// registry under "audit.*" keys: per-app violation counts, bound and
// headroom gauges, and the adopted latency/attribution histograms.
// Idempotent; call at snapshot/export time.
func (a *Auditor) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	snaps := a.Snapshot()
	var total uint64
	for _, s := range snaps {
		prefix := "audit." + s.App + "."
		reg.Gauge(prefix + "observed").Set(float64(s.Observed))
		reg.Gauge(prefix + "violations").Set(float64(s.Violations))
		if !math.IsInf(s.HeadroomNS, 1) {
			reg.Gauge(prefix + "bound_ns").Set(s.Bound.DelayBoundNS)
			reg.Gauge(prefix + "headroom_ns").Set(s.HeadroomNS)
		}
		reg.Gauge(prefix + "max_ns").Set(s.MaxNS)
		if s.Bound.BudgetBytesPerPeriod > 0 {
			reg.Gauge(prefix + "budget_bytes_per_period").Set(float64(s.Bound.BudgetBytesPerPeriod))
		}
		aa := a.App(s.App)
		reg.RegisterHistogram(prefix+"latency_ps", aa.LatencyHistogram())
		for st := Stage(0); st < NumStages; st++ {
			if h := aa.StageHistogram(st); h.Count() > 0 {
				reg.RegisterHistogram(prefix+"stage."+st.String()+"_ps", h)
			}
		}
		total += s.Violations
	}
	reg.Gauge("audit.violations_total").Set(float64(total))
}
