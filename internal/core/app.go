package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/dsu"
	"repro/internal/memguard"
	"repro/internal/mpam"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// requestHeaderBytes is the size of a read-request packet on the mesh
// (command + address); the response carries the data.
const requestHeaderBytes = 16

// AppConfig describes one application on the platform.
type AppConfig struct {
	Name string
	// Node is where the app's core sits on the mesh; Cluster selects
	// the shared L3 it allocates into. On a clustered platform the node
	// must sit inside the cluster's column slab.
	Node    noc.Coord
	Cluster int
	// Scheme is the app's DSU scheme ID (its identification label for
	// cache partitioning; also used as its MPAM-style owner).
	Scheme dsu.SchemeID
	// PARTID labels the app's memory traffic for the MPAM channel;
	// zero defaults to the scheme ID value.
	PARTID mpam.PARTID
	// PMG sub-labels the app within its PARTID for monitoring.
	PMG mpam.PMG
	// Profile drives the access stream.
	Profile *trace.Profile
	// Critical marks the app for reporting.
	Critical bool
}

// AppStats summarizes an app's observed behaviour.
type AppStats struct {
	Issued, L3Hits, L3Misses uint64
	Reads, Writes            uint64
	// Read round-trip latency (issue to data return), in virtual time.
	MeanReadLatency sim.Duration
	MaxReadLatency  sim.Duration
	P95ReadLatency  sim.Duration
	BytesMoved      uint64
}

// App is a closed-loop traffic generator bound to a platform.
type App struct {
	p   *Platform
	cfg AppConfig

	// eng is the engine owning the app's mesh node — the platform
	// engine on the legacy shape, the node's slab engine under a
	// partitioned clustered fabric. Everything the app schedules on its
	// own behalf goes here.
	eng *sim.Engine
	// mg is the app's entity on its cluster's MemGuard regulator, bound
	// at registration (nil when regulation is disabled); it passes
	// requests through until the app is given a budget.
	mg *memguard.Entity

	running bool
	count   uint64

	issued, hits, misses uint64
	reads, writes        uint64
	bytes                uint64
	totalLat, maxLat     sim.Duration
	latHist              *telemetry.Histogram

	memTap func(at sim.Time, bytes int)

	// aud is the app's runtime-auditor handle (nil unless the platform
	// has EnableAudit); completed transactions report their per-stage
	// latency decomposition through it.
	aud *audit.AppAuditor

	// Hot-path caches: the app's NI (fixed after AddApp), the response
	// flow label, the step callback bound once, and the free list of
	// recycled transactions — in steady state an access allocates
	// nothing.
	ni       *noc.NI
	respFlow string
	stepFn   sim.Event
	txnFree  []*txn
}

// txn carries one access through the platform: caches → (MemGuard) →
// mesh → (MPAM channel) → DRAM → response. The request, both packets,
// and the MPAM channel request are embedded by value, and every
// continuation along the chain is bound once when the txn is first
// built, so the per-access hot path performs zero heap allocations
// after the pool warms up. A txn is recycled when its last leg
// completes (hit latency served, read response delivered, or posted
// write retired by the controller).
//
// On a clustered platform the chain changes engines twice: the request
// packet's delivery hands the txn to the channel node's engine (where
// arbitration, DRAM service, and the response send run), and the
// response delivery hands it back to the app's engine. Posted-write
// retirement crosses back via the controller's CompleteOn machinery so
// the pool is only ever touched from the app's engine.
type txn struct {
	a     *App
	ch    *memChannel
	bank  int
	row   int64
	write bool
	start sim.Time
	// issueAt and memAt stamp the regulator grant and the request
	// packet's arrival at the memory node; with the DRAM request's own
	// Arrival/Service/Completion stamps they let the auditor partition
	// the round trip into stages exactly (integer picoseconds).
	issueAt sim.Time
	memAt   sim.Time

	req     dram.Request
	reqPkt  noc.Packet
	respPkt noc.Packet
	bwReq   mpam.BWRequest

	hitFn       sim.Event
	issueFn     func()
	onReqDeliv  func(sim.Time)
	onBWDone    func(sim.Time)
	ctrlFn      func()
	onDRAMDone  func()
	onRespDeliv func(sim.Time)
	releaseFn   func()
}

// acquireTxn takes a transaction from the free list, building (and
// binding the continuations of) a fresh one only when the pool is
// empty.
func (a *App) acquireTxn() *txn {
	if n := len(a.txnFree); n > 0 {
		t := a.txnFree[n-1]
		a.txnFree = a.txnFree[:n-1]
		return t
	}
	t := &txn{a: a}
	t.hitFn = t.hit
	t.issueFn = t.issue
	t.onReqDeliv = func(sim.Time) { t.atMemory() }
	t.onBWDone = func(sim.Time) { t.atController() }
	t.ctrlFn = t.atController
	t.onDRAMDone = t.sendResponse
	t.onRespDeliv = func(sim.Time) { t.finishRead() }
	t.releaseFn = func() { t.a.releaseTxn(t) }
	return t
}

// releaseTxn recycles a finished transaction.
func (a *App) releaseTxn(t *txn) { a.txnFree = append(a.txnFree, t) }

// Config returns the app's configuration.
func (a *App) Config() AppConfig { return a.cfg }

// TapMemory installs a callback invoked for every memory-bound
// transaction the app issues (its cache-miss traffic), with the issue
// time and transfer size — the hook the profiling tooling uses to
// measure empirical arrival curves. Pass nil to remove.
func (a *App) TapMemory(f func(at sim.Time, bytes int)) { a.memTap = f }

// ReadLatencyHistogram exposes the app's read-latency histogram (nil
// until the first read completes) so telemetry registries can adopt
// it without re-recording samples.
func (a *App) ReadLatencyHistogram() *telemetry.Histogram { return a.latHist }

// AddApp registers an application.
func (p *Platform) AddApp(cfg AppConfig) (*App, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: app needs a name")
	}
	if _, dup := p.apps[cfg.Name]; dup {
		return nil, fmt.Errorf("core: duplicate app %q", cfg.Name)
	}
	if cfg.Cluster < 0 || cfg.Cluster >= len(p.clusters) {
		return nil, fmt.Errorf("core: app %s on cluster %d of %d", cfg.Name, cfg.Cluster, len(p.clusters))
	}
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("core: app %s scheme ID %d invalid", cfg.Name, cfg.Scheme)
	}
	if !p.mesh.InMesh(cfg.Node) {
		return nil, fmt.Errorf("core: app %s node %v outside mesh", cfg.Name, cfg.Node)
	}
	if p.distributed {
		if own := p.ClusterOfColumn(cfg.Node.X); own != cfg.Cluster {
			return nil, fmt.Errorf("core: app %s at %v sits in cluster %d's slab, not cluster %d",
				cfg.Name, cfg.Node, own, cfg.Cluster)
		}
	}
	if cfg.Profile == nil || cfg.Profile.Pattern == nil || cfg.Profile.ReqBytes <= 0 {
		return nil, fmt.Errorf("core: app %s needs a valid profile", cfg.Name)
	}
	if cfg.PARTID == 0 {
		cfg.PARTID = mpam.PARTID(cfg.Scheme)
	}
	a := p.newApp()
	a.p, a.cfg = p, cfg
	a.stepFn = a.step
	a.respFlow = p.joinName(cfg.Name, ":resp")
	a.ni, _ = p.mesh.NI(cfg.Node)
	a.eng = p.mesh.EngineAt(cfg.Node)
	if reg := p.ClusterRegulator(cfg.Cluster); reg != nil {
		a.mg = reg.Bind(cfg.Name)
	}
	p.apps[cfg.Name] = a
	p.order = append(p.order, a)
	p.homed[p.HomeChannel(cfg.Cluster)]++
	if p.aud != nil {
		p.registerAudit(a)
	}
	return a, nil
}

// newApp returns a zero App, from the reserved array while it lasts.
func (p *Platform) newApp() *App {
	if len(p.freeApps) == 0 {
		return new(App)
	}
	a := &p.freeApps[0]
	p.freeApps = p.freeApps[1:]
	return a
}

// joinName returns a+b written into the platform's name buffer rather
// than a fresh allocation. A strings.Builder never rewrites bytes it
// has handed out, so each name stays valid as the buffer grows.
func (p *Platform) joinName(a, b string) string {
	start := p.names.Len()
	p.names.WriteString(a)
	p.names.WriteString(b)
	return p.names.String()[start:]
}

// App returns a registered application.
func (p *Platform) App(name string) (*App, error) {
	a, ok := p.apps[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown app %q", name)
	}
	return a, nil
}

// Apps returns the registered app names in registration order.
func (p *Platform) Apps() []string {
	names := make([]string, len(p.order))
	for i, a := range p.order {
		names[i] = a.cfg.Name
	}
	return names
}

// Name returns the app's name.
func (a *App) Name() string { return a.cfg.Name }

// Start begins the app's closed loop at the current virtual time.
func (a *App) Start() {
	if a.running {
		return
	}
	a.running = true
	a.eng.At(a.eng.Now(), a.stepFn)
}

// Stop halts the loop after the in-flight access completes.
func (a *App) Stop() { a.running = false }

// Stats returns a snapshot of the app's counters.
func (a *App) Stats() AppStats {
	st := AppStats{
		Issued: a.issued, L3Hits: a.hits, L3Misses: a.misses,
		Reads: a.reads, Writes: a.writes,
		MaxReadLatency: a.maxLat, BytesMoved: a.bytes,
	}
	if a.reads > 0 {
		st.MeanReadLatency = a.totalLat / sim.Duration(a.reads)
	}
	st.P95ReadLatency = sim.Duration(a.latHist.Quantile(0.95))
	return st
}

// step issues one access and schedules the next.
func (a *App) step() {
	if !a.running {
		return
	}
	a.count++
	a.issued++
	addr := a.cfg.Profile.Next()
	write := a.cfg.Profile.WriteEvery > 0 && a.count%uint64(a.cfg.Profile.WriteEvery) == 0
	start := a.eng.Now()

	// Software page coloring, when enabled, remaps the address before
	// it reaches the cache.
	if col := a.p.coloring[a.cfg.Cluster]; col != nil {
		addr = col.Translate(cache.Owner(a.cfg.Scheme), addr)
	}

	cl := a.p.clusters[a.cfg.Cluster]
	res := cl.AccessHier(a.cfg.Scheme, addr, write)
	t := a.acquireTxn()
	t.write = write
	t.start = start
	if res.Hit() {
		a.hits++
		lat := a.p.cfg.L3HitLatency
		if res.Level == 2 {
			lat = a.p.cfg.L2HitLatency
		}
		a.eng.After(lat, t.hitFn)
		return
	}
	a.misses++
	t.ch, t.bank, t.row = a.p.route(addr, a.cfg.Cluster)

	if a.mg != nil {
		// MemGuard meters misses (the traffic that actually reaches
		// memory), per application.
		if err := a.mg.Request(a.cfg.Profile.ReqBytes, t.issueFn); err == nil {
			return
		}
	}
	t.issue()
}

// hit completes a cache-hit access after the hit latency.
func (t *txn) hit() {
	a := t.a
	if a.aud != nil {
		var b audit.Breakdown
		b[audit.StageL3Hit] = a.eng.Now() - t.start
		a.aud.Observe(a.eng.Now(), b)
	}
	a.finish(t.start, t.write, false)
	a.releaseTxn(t)
}

// issue sends the miss across the mesh to its memory channel.
func (t *txn) issue() {
	a := t.a
	t.issueAt = a.eng.Now()
	if a.ni == nil {
		a.releaseTxn(t)
		return
	}
	reqBytes := requestHeaderBytes
	if t.write {
		reqBytes = a.cfg.Profile.ReqBytes // write carries its data
	}
	if a.memTap != nil {
		a.memTap(a.eng.Now(), a.cfg.Profile.ReqBytes)
	}
	t.reqPkt = noc.Packet{
		Dst:         t.ch.node,
		Bytes:       reqBytes,
		Flow:        a.cfg.Name,
		OnDelivered: t.onReqDeliv,
	}
	if err := a.ni.Send(&t.reqPkt); err != nil {
		// Malformed packets cannot happen here; treat as dropped.
		a.releaseTxn(t)
		return
	}
	if t.write {
		// Posted write: the core does not wait for the data to land.
		a.finish(t.start, true, true)
	}
}

// atMemory runs when the request packet reaches the channel node (on
// that node's engine): through the channel's MPAM arbiter (when
// enabled), then the DRAM controller.
func (t *txn) atMemory() {
	a := t.a
	t.memAt = t.ch.eng.Now()
	t.bwReq = mpam.BWRequest{
		Label:  mpam.Label{PARTID: a.cfg.PARTID, PMG: a.cfg.PMG},
		Bytes:  a.cfg.Profile.ReqBytes,
		Write:  t.write,
		OnDone: t.onBWDone,
	}
	a.p.channelSubmit(t.ch, &t.bwReq, t.ctrlFn)
}

// atController submits the transaction to its channel's DRAM
// controller.
func (t *txn) atController() {
	a := t.a
	op := dram.Read
	if t.write {
		op = dram.Write
	}
	t.req = dram.Request{
		Master: a.cfg.Name,
		Op:     op,
		Bank:   t.bank,
		Row:    t.row,
		Size:   a.cfg.Profile.ReqBytes,
	}
	if t.write {
		// Posted; already accounted — completion just recycles the txn,
		// on the app's engine (a cross-partition hop when the channel
		// sits on another slab; synchronous and byte-identical to a nil
		// CompleteOn when it does not).
		t.req.CompleteOn = a.eng
		t.req.OnComplete = t.releaseFn
		a.p.submitDRAM(t.ch, &t.req)
		return
	}
	t.req.OnComplete = t.onDRAMDone
	a.p.submitDRAM(t.ch, &t.req)
}

// sendResponse runs at read completion (on the channel's engine): the
// data travels back to the app's node.
func (t *txn) sendResponse() {
	a := t.a
	if t.ch.ni == nil {
		a.releaseTxn(t)
		return
	}
	t.respPkt = noc.Packet{
		Dst:         a.cfg.Node,
		Bytes:       a.cfg.Profile.ReqBytes,
		Flow:        a.respFlow,
		OnDelivered: t.onRespDeliv,
	}
	if t.ch.ni.Send(&t.respPkt) != nil {
		a.releaseTxn(t)
	}
}

// finishRead completes the round trip when the response lands (back on
// the app's engine).
func (t *txn) finishRead() {
	a := t.a
	if a.aud != nil {
		a.aud.Observe(a.eng.Now(), t.breakdown(a.eng.Now()))
	}
	a.finish(t.start, false, true)
	a.releaseTxn(t)
}

// breakdown partitions a completed read's round trip [start, now]
// into the auditor's attribution stages. The stages are exact integer
// picosecond spans cut at the transaction's own stamps, so they always
// sum to the observed end-to-end latency:
//
//	regulator stall | NoC request | channel arbitration (MPAM wait
//	plus full-queue backpressure retries) | DRAM bank queue | DRAM
//	service | NoC response
func (t *txn) breakdown(now sim.Time) audit.Breakdown {
	var b audit.Breakdown
	b[audit.StageMemGuard] = t.issueAt - t.start
	b[audit.StageNoCRequest] = t.memAt - t.issueAt
	b[audit.StageChannel] = t.req.Arrival - t.memAt
	b[audit.StageDRAMQueue] = t.req.Completion - t.req.Arrival - t.req.Service
	b[audit.StageDRAMService] = t.req.Service
	b[audit.StageNoCResponse] = now - t.req.Completion
	return b
}

// finish records one access and schedules the next step after the
// profile's think time.
func (a *App) finish(start sim.Time, write, toMemory bool) {
	now := a.eng.Now()
	if write {
		a.writes++
	} else {
		a.reads++
		lat := now - start
		a.totalLat += lat
		if lat > a.maxLat {
			a.maxLat = lat
		}
		if a.latHist == nil {
			a.latHist = telemetry.NewHistogram()
		}
		a.latHist.Record(int64(lat))
	}
	if toMemory {
		a.bytes += uint64(a.cfg.Profile.ReqBytes)
	}
	if !a.running {
		return
	}
	delay := a.cfg.Profile.Think
	if delay <= 0 {
		delay = 1
	}
	a.eng.After(delay, a.stepFn)
}
