package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/dram/wcd"
	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
)

// AuditOptions parameterizes EnableAudit.
type AuditOptions struct {
	// Bounds overrides the analytic delay bound (in ns) per app name.
	// Apps absent from the map get the platform-derived Network
	// Calculus bound; an explicit 0 or +Inf disables conformance
	// checking for that app (attribution still accumulates).
	Bounds map[string]float64
	// OnViolation runs synchronously for every bound violation, on the
	// simulation goroutine, the moment the violating transaction
	// completes.
	OnViolation func(audit.Violation)
	// MaxViolations caps retained violation events (0 = default).
	MaxViolations int
}

// EnableAudit arms the runtime predictability auditor: every already
// registered app (and any registered later) is captured with its
// analytic NC delay bound and MemGuard budget, and from then on each
// completed transaction is decomposed into per-stage contention
// attribution and checked against the bound online. When telemetry is
// enabled the mesh's per-flow latency histograms are switched on so
// scrapes carry NoC-level latency too. Call before traffic starts.
func (p *Platform) EnableAudit(opts AuditOptions) (*audit.Auditor, error) {
	if p.aud != nil {
		return nil, fmt.Errorf("core: audit already enabled")
	}
	p.aud = audit.New(audit.Config{
		OnViolation:   opts.OnViolation,
		MaxViolations: opts.MaxViolations,
	})
	p.audBounds = opts.Bounds
	// Registrations of co-located apps compose the same NoC and DRAM
	// service curves over and over; the memo makes re-registration (and
	// the re-derivation after each app joins) cheap. Cached results are
	// bit-identical to the uncached composition, so bounds don't move.
	p.ncCache = netcalc.NewCache(0)
	p.dramReq, p.dramReqErr = wcd.ServiceCurve(wcd.DefaultParams(), 32)
	p.audCurves = auditCurves{
		req: make(map[int]*reqCurves),
		noc: make(map[uint64]netcalc.Curve),
	}
	p.aud.Reserve(len(p.order))
	for _, a := range p.order {
		p.registerAudit(a)
	}
	// Per-flow NoC histograms are single-writer and sample-order
	// dependent, so a clustered platform keeps them off at every
	// partition count — including the sequential engine, where they
	// would otherwise silently reappear and break the byte-identity of
	// metric dumps across partition counts.
	if p.tel != nil && p.tel.Registry != nil && !p.distributed {
		p.mesh.EnableFlowLatencyHistograms()
	}
	return p.aud, nil
}

// Auditor returns the platform's auditor (nil when disabled).
func (p *Platform) Auditor() *audit.Auditor { return p.aud }

// NetcalcCache returns the cache the auditor composes analytic bounds
// through, nil until EnableAudit.
func (p *Platform) NetcalcCache() *netcalc.Cache { return p.ncCache }

// registerAudit captures one app's contract with the auditor.
func (p *Platform) registerAudit(a *App) {
	b := audit.Bound{}
	if explicit, ok := p.audBounds[a.cfg.Name]; ok {
		b.DelayBoundNS = explicit
	} else {
		b.DelayBoundNS = p.analyticDelayBoundNS(a)
	}
	if a.mg != nil {
		if budget, ok := a.mg.Budget(); ok {
			b.BudgetBytesPerPeriod = budget
		}
	}
	a.aud = p.aud.Register(a.cfg.Name, b)
}

// channelContenders counts the apps (other than a) whose miss traffic
// shares a's memory channels: under ChannelPartition only the apps
// homed on the same channel contend, otherwise every app does (an
// interleaved stream touches every channel).
func (p *Platform) channelContenders(a *App) int {
	if !p.distributed || p.cfg.ChannelMode != ChannelPartition {
		n := len(p.apps) - 1
		if n < 0 {
			n = 0
		}
		return n
	}
	return p.homed[p.HomeChannel(a.cfg.Cluster)] - 1
}

// analyticDelayBoundNS composes the app's Section IV-A end-to-end
// bound from the platform's own models: a closed-loop token-bucket
// arrival contract (one request of ReqBytes per think interval)
// pushed through the NoC request path, the WCD-derived DRAM service
// curve, and the NoC response path, each shared with the app's
// channel contenders. On a multi-channel platform the composition is
// per channel: under ChannelPartition the path runs to the app's home
// channel node against only the apps homed there; under
// ChannelInterleave the stream touches every channel, so the bound is
// the worst per-channel composition against all co-runners. A budgeted
// app additionally absorbs one full MemGuard period (the worst
// throttle stall). +Inf (an infeasible composition) disables
// conformance checking for the app.
func (p *Platform) analyticDelayBoundNS(a *App) float64 {
	if p.dramReqErr != nil {
		return 0 // no analytic bound derivable; attribution-only
	}
	prof := a.cfg.Profile
	// Think times under 1 ns are clamped to 1 ns, and key as 1 ns.
	think, thinkNS := prof.Think, prof.Think.Nanoseconds()
	if thinkNS < 1 {
		think, thinkNS = sim.Nanosecond, 1
	}
	cv := &p.audCurves
	rc := cv.req[prof.ReqBytes]
	if rc == nil {
		rc = &reqCurves{
			dram:  netcalc.Scale(p.dramReq, float64(prof.ReqBytes)),
			alpha: make(map[sim.Duration]netcalc.Curve),
		}
		cv.req[prof.ReqBytes] = rc
	}
	alpha, ok := rc.alpha[think]
	if !ok {
		alpha = netcalc.TokenBucket(float64(prof.ReqBytes), float64(prof.ReqBytes)/thinkNS)
		rc.alpha[think] = alpha
	}

	contenders := p.channelContenders(a)
	targets := p.chans
	if p.distributed && p.cfg.ChannelMode == ChannelPartition {
		targets = p.chans[p.HomeChannel(a.cfg.Cluster) : p.HomeChannel(a.cfg.Cluster)+1]
	}
	var bound float64
	for _, ch := range targets {
		// The mesh curve depends only on the route length and the
		// contender count, so the way there and the way back share it.
		nk := nocKey(noc.HopCount(a.cfg.Node, ch.node), contenders)
		nocPath, ok := cv.noc[nk]
		if !ok {
			nocPath = p.mesh.ServiceCurve(a.cfg.Node, ch.node, contenders)
			cv.noc[nk] = nocPath
		}
		b := p.ncCache.DelayBoundThrough(alpha, nocPath, rc.dram, nocPath)
		if b > bound {
			bound = b
		}
	}
	if a.mg != nil {
		if _, budgeted := a.mg.Budget(); budgeted {
			bound += p.ClusterRegulator(a.cfg.Cluster).Period().Nanoseconds()
		}
	}
	return bound
}

// auditCurves holds the curves analyticDelayBoundNS composes, one value
// per distinct input for the life of the auditor. Apps sharing an input
// pass the very same curve value, which the netcalc interner recognises
// by its backing array without hashing it again. Every key is one
// 64-bit word, so each lookup takes the map's integer fast path.
type auditCurves struct {
	req map[int]*reqCurves       // per ReqBytes
	noc map[uint64]netcalc.Curve // per nocKey
}

// reqCurves holds the curves of one request size: the DRAM curve
// scaled to it, and the closed-loop token bucket (ReqBytes per think
// time) per think time.
type reqCurves struct {
	dram  netcalc.Curve
	alpha map[sim.Duration]netcalc.Curve
}

// nocKey packs a mesh service curve's input, hop count and contenders,
// into one word.
func nocKey(hops, contenders int) uint64 {
	return uint64(hops)<<32 | uint64(uint32(contenders))
}
