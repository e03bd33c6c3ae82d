package core

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/dsu"
	"repro/internal/mpam"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// RunSpec is a plain, serializable description of one contention
// experiment on the default platform: a critical control loop at
// mesh node (0,0) contended by Hogs best-effort aggressors, with each
// of the paper's QoS mechanisms individually armed. It exists so a
// whole platform is constructible from a value — the sweep harness
// expands a configuration matrix into RunSpecs and builds a fresh,
// fully independent Platform (own sim.Engine, own telemetry) per run.
type RunSpec struct {
	// Hogs is the number of best-effort aggressor apps.
	Hogs int
	// DSU partitions the L3 with a CLUSTERPARTCR reserving groups 0-1
	// for the critical app's scheme.
	DSU bool
	// MemGuard gives each hog a bandwidth budget.
	MemGuard bool
	// Shape installs NI token-bucket shapers on hog nodes.
	Shape bool
	// MPAM regulates the memory channel with min/max bandwidth
	// partitions (critical guaranteed, hogs capped).
	MPAM bool
	// HogClass is the hogs' workload class (default Infotainment).
	HogClass trace.WorkloadClass
	// Duration is the simulated horizon.
	Duration sim.Duration
	// Seed offsets the hogs' random address streams; hog i draws from
	// seed Seed+i. Runs differing only in Seed are independent
	// samples of the same configuration.
	Seed uint64
	// KernelPartitions runs the platform on a Parallel event kernel
	// with this many partitions (socsim -parallel). Output is
	// byte-identical for every value; 0 keeps the sequential engine.
	// The sweep harness pins this to 0 — its parallelism is one whole
	// run per OS worker, and kernel partitions inside each run would
	// oversubscribe the cores (documented in docs/PERFORMANCE.md).
	KernelPartitions int
	// Telemetry enables the metrics registry (and monitors); Trace
	// additionally records a Chrome trace_event timeline.
	Telemetry bool
	Trace     bool
	// Audit arms the runtime predictability auditor: per-app analytic
	// delay bounds, online conformance checking, and per-stage
	// contention attribution.
	Audit bool
	// AuditBounds overrides the analytic per-app delay bound (ns);
	// see AuditOptions.Bounds. Only meaningful with Audit.
	AuditBounds map[string]float64
	// MetricsPath, when non-empty, writes the end-of-run metrics
	// snapshot to this file in OpenMetrics text ("-" for stdout) and
	// implies Telemetry — the sweep harness's per-run snapshot hook.
	// The snapshot is written even when the run fails or panics: a
	// failed run's telemetry is exactly the evidence a diagnosis
	// needs, so Run dumps whatever accumulated before unwinding.
	MetricsPath string
	// MetricsSink, when non-nil, receives the end-of-run OpenMetrics
	// snapshot bytes exactly once per Run — including on the failure
	// and panic paths — and implies Telemetry. It is how the sweep
	// harness captures per-run payloads for the cross-run results
	// store without routing them through the filesystem. The sink
	// owns the slice.
	MetricsSink func(openmetrics []byte)

	// Scale knobs. Setting any of them switches the build from the
	// default 4x4 platform to a clustered platform: a MeshWidth x
	// MeshHeight mesh, Clusters CPU clusters (each with a private L2 in
	// front of its L3), Channels DRAM controllers under channel-aware
	// placement (ChannelPartition — each cluster's misses stay on its
	// home channel), and AppsPerTile apps on every mesh tile (the tile
	// (0,0) slot 0 app is the critical control loop; the rest are
	// hogs). Hogs is ignored in this shape. Zero values default to
	// MeshWidth 16, MeshHeight = MeshWidth, Clusters = min(8, width),
	// Channels = Clusters, AppsPerTile 1.
	MeshWidth   int
	MeshHeight  int
	Clusters    int
	Channels    int
	AppsPerTile int
}

// Scaled reports whether the spec builds the clustered platform shape.
func (s RunSpec) Scaled() bool {
	return s.MeshWidth != 0 || s.MeshHeight != 0 || s.Clusters != 0 || s.Channels != 0 || s.AppsPerTile != 0
}

// platformConfig derives the platform configuration for the spec.
func (s RunSpec) platformConfig() Config {
	cfg := DefaultConfig()
	cfg.Partitions = s.KernelPartitions
	if !s.Scaled() {
		return cfg
	}
	w := s.MeshWidth
	if w == 0 {
		w = 16
	}
	h := s.MeshHeight
	if h == 0 {
		h = w
	}
	clusters := s.Clusters
	if clusters == 0 {
		clusters = min(8, w)
	}
	channels := s.Channels
	if channels == 0 {
		channels = clusters
	}
	cfg.Mesh.Width, cfg.Mesh.Height = w, h
	ccfg := dsu.DefaultConfig()
	ccfg.L2Sets, ccfg.L2Ways = 256, 8 // 128 KiB private L2 per cluster
	cfg.Clusters = make([]dsu.Config, clusters)
	for i := range cfg.Clusters {
		cfg.Clusters[i] = ccfg
	}
	cfg.Channels = channels
	cfg.ChannelMode = ChannelPartition
	cfg.MemoryNode = noc.Coord{X: w - 1, Y: h - 1}
	cfg.L2HitLatency = sim.NS(8)
	return cfg
}

// Validate checks the spec.
func (s RunSpec) Validate() error {
	if s.Hogs < 0 {
		return fmt.Errorf("core: RunSpec.Hogs = %d, must be >= 0", s.Hogs)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("core: RunSpec.Duration = %v, must be positive", s.Duration)
	}
	if s.KernelPartitions < 0 {
		return fmt.Errorf("core: RunSpec.KernelPartitions = %d, must be >= 0", s.KernelPartitions)
	}
	for _, knob := range []struct {
		name string
		v    int
	}{
		{"MeshWidth", s.MeshWidth}, {"MeshHeight", s.MeshHeight},
		{"Clusters", s.Clusters}, {"Channels", s.Channels}, {"AppsPerTile", s.AppsPerTile},
	} {
		if knob.v < 0 {
			return fmt.Errorf("core: RunSpec.%s = %d, must be >= 0", knob.name, knob.v)
		}
	}
	return nil
}

// RunResult is the measured outcome of a RunSpec.
type RunResult struct {
	// Crit is the critical app's latency profile.
	Crit AppStats
	// RowHitRate is the DRAM row-hit rate aggregated over every channel.
	RowHitRate float64
	// HogStats holds each hog's stats, in registration order.
	HogStats []AppStats
	// CritViolations and TotalViolations count the auditor's bound
	// violations for the critical app and across all apps (zero when
	// the auditor is off).
	CritViolations  uint64
	TotalViolations uint64
	// AuditObserved counts the transactions the auditor checked across
	// all apps (zero when the auditor is off) — the denominator of the
	// run's bound-conformance rate
	// (AuditObserved-TotalViolations)/AuditObserved.
	AuditObserved uint64
}

// BuildPlatform assembles a fresh Platform per the spec: the critical
// control loop plus spec.Hogs aggressors, with every armed mechanism
// configured. Nothing is started — the returned critical app and the
// hogs are registered but idle; StartApps (or RunSpec.Run, which does
// all of it) sets the traffic going.
func BuildPlatform(spec RunSpec) (*Platform, *App, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	p, err := New(spec.platformConfig())
	if err != nil {
		return nil, nil, err
	}
	slots := hogSlots(p, spec)
	p.reserveApps(slots)
	if spec.Telemetry || spec.Trace {
		if _, err := p.EnableTelemetry(spec.Trace); err != nil {
			return nil, nil, err
		}
	}
	if spec.MPAM {
		if err := p.EnableMPAMChannel(mpam.BWConfig{CapacityBytesPerNS: 2.0}); err != nil {
			return nil, nil, err
		}
		// Critical traffic (PARTID 1) gets a minimum guarantee and
		// top priority; hog PARTIDs are capped below.
		if err := p.ConfigureMPAM(1, mpam.PartitionBW{MinBytesPerNS: 0.8, Priority: 1}); err != nil {
			return nil, nil, err
		}
	}
	critProf, err := trace.NewProfile(trace.ControlLoop, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	crit, err := p.AddApp(AppConfig{
		Name: "crit", Node: noc.Coord{X: 0, Y: 0}, Cluster: 0, Scheme: 1,
		Profile: critProf, Critical: true,
	})
	if err != nil {
		return nil, nil, err
	}
	hogProfiles := trace.NewProfiles(spec.HogClass, len(slots))
	for i, s := range slots {
		if err := buildHog(p, spec, hogProfiles, i, s.node, s.cluster); err != nil {
			return nil, nil, err
		}
	}
	if spec.MPAM {
		// The arbiter's token bucket holds MaxBytesPerNS * 100ns of
		// credit, so a cap must admit at least one whole request or the
		// partition can never conform. On the clustered platform hogs
		// are homed on channels with no uncapped co-runner, so the cap
		// has to be self-feasible: 0.8 B/ns = an 80-byte burst against
		// 64-byte requests. The legacy scenario keeps its historical
		// 0.15 cap (its single arbiter is shared with crit). Hogs share
		// hogSchemes PARTIDs, each configured once on every channel.
		capBps := 0.15
		if spec.Scaled() {
			capBps = 0.8
		}
		for i := 0; i < min(len(slots), hogSchemes); i++ {
			if err := p.ConfigureMPAM(mpam.PARTID(hogScheme(i)), mpam.PartitionBW{MaxBytesPerNS: capBps}); err != nil {
				return nil, nil, err
			}
		}
	}
	if spec.DSU {
		reg, err := dsu.Encode(map[dsu.SchemeID][]dsu.Group{1: {0, 1}})
		if err != nil {
			return nil, nil, err
		}
		clusters := 1
		if spec.Scaled() {
			clusters = len(p.clusters) // protect the crit scheme on every L3
		}
		for c := 0; c < clusters; c++ {
			if err := p.ProgramDSU(c, reg); err != nil {
				return nil, nil, err
			}
		}
	}
	if spec.Audit {
		// After every app and budget is in place, so the captured
		// contracts see the final co-runner set and MemGuard budgets.
		if _, err := p.EnableAudit(AuditOptions{Bounds: spec.AuditBounds}); err != nil {
			return nil, nil, err
		}
	}
	return p, crit, nil
}

// BigMeshSpec returns the canonical big-mesh scale-out scenario: a
// 16x16 mesh, 8 clusters (each with a private L2), 8 DRAM channels
// under channel-aware placement, and 2 apps on every tile — 512 hogs
// plus the critical loop — with the DSU, MemGuard, and MPAM mechanisms
// armed. partitions selects the kernel cut (0 = sequential engine);
// output is byte-identical for every value because each cluster's
// entire memory path (L2/L3, regulator, MPAM arbiter, home DRAM
// channel) lives inside its own column slab, so no traffic ever
// crosses a partition cut. Callers override Duration/Seed as needed.
func BigMeshSpec(partitions int) RunSpec {
	return RunSpec{
		MeshWidth:        16,
		MeshHeight:       16,
		Clusters:         8,
		Channels:         8,
		AppsPerTile:      2,
		DSU:              true,
		MemGuard:         true,
		MPAM:             true,
		Duration:         50 * sim.Microsecond,
		Seed:             1,
		KernelPartitions: partitions,
	}
}

// hogSlot is one aggressor's placement.
type hogSlot struct {
	node    noc.Coord
	cluster int
}

// hogSlots places the spec's aggressors. Clustered: every tile carries
// AppsPerTile apps; the crit loop holds tile (0,0)'s first slot and
// every other slot is a hog homed on its column's cluster. Legacy:
// spec.Hogs hogs on cluster 0 around the crit node.
func hogSlots(p *Platform, spec RunSpec) []hogSlot {
	if !spec.Scaled() {
		slots := make([]hogSlot, spec.Hogs)
		for i := range slots {
			slots[i].node = noc.Coord{X: 1 + i%3, Y: i / 3 % 4}
		}
		return slots
	}
	apt := max(spec.AppsPerTile, 1)
	slots := make([]hogSlot, 0, p.cfg.Mesh.Width*p.cfg.Mesh.Height*apt-1)
	for y := 0; y < p.cfg.Mesh.Height; y++ {
		for x := 0; x < p.cfg.Mesh.Width; x++ {
			for k := 0; k < apt; k++ {
				if x == 0 && y == 0 && k == 0 {
					continue // crit's slot
				}
				slots = append(slots, hogSlot{noc.Coord{X: x, Y: y}, p.ClusterOfColumn(x)})
			}
		}
	}
	return slots
}

// reserveApps sizes the (still empty) platform for the crit loop on
// cluster 0 plus slots: one array of apps, the app table, the name
// buffer, and each regulator's entities (every app binds one), so
// registering them neither rehashes a table nor allocates per app.
func (p *Platform) reserveApps(slots []hogSlot) {
	n := 1 + len(slots)
	p.apps = make(map[string]*App, n)
	p.order = make([]*App, 0, n)
	p.freeApps = make([]App, n)
	// "crit:resp", then each hog's name twice and ":resp".
	digits := len(strconv.Itoa(len(slots)))
	p.names.Grow(len("crit:resp") + len(slots)*(2*(len("hog")+digits)+len(":resp")))
	if !p.distributed {
		if p.reg != nil {
			p.reg.Reserve(n)
		}
		return
	}
	perCluster := make([]int, len(p.clusters))
	perCluster[0] = 1
	for _, s := range slots {
		perCluster[s.cluster]++
	}
	for k, m := range perCluster {
		if m > 0 && p.regs[k] != nil {
			p.regs[k].Reserve(m)
		}
	}
}

// hogName returns "hog<i>" from the platform's name buffer.
func (p *Platform) hogName(i int) string {
	start := p.names.Len()
	var digits [20]byte
	p.names.WriteString("hog")
	p.names.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	return p.names.String()[start:]
}

// hogSchemes is the number of DSU schemes (and so MPAM PARTIDs) the
// hogs rotate through; hogScheme(i) is hog i's.
const hogSchemes = 6

func hogScheme(i int) dsu.SchemeID { return dsu.SchemeID(2 + i%hogSchemes) }

// buildHog adds aggressor i at node (on the given cluster), its
// profile from profiles, and arms the spec's per-hog mechanisms:
// MemGuard budget and NI shaper. The MPAM cap is per PARTID, so
// BuildPlatform configures it once for all hogs.
func buildHog(p *Platform, spec RunSpec, profiles *trace.Profiles, i int, node noc.Coord, cluster int) error {
	prof, err := profiles.New(uint64(1+i)<<30, spec.Seed+uint64(i))
	if err != nil {
		return err
	}
	a, err := p.AddApp(AppConfig{
		Name: p.hogName(i), Node: node, Cluster: cluster, Scheme: hogScheme(i), Profile: prof,
	})
	if err != nil {
		return err
	}
	if spec.MemGuard {
		if err := a.setMemBudget(16 << 10); err != nil {
			return err
		}
	}
	if spec.Shape {
		if err := p.SetNodeShaper(node, 256, 0.2); err != nil {
			return err
		}
	}
	return nil
}

// StartApps starts every registered app at the current virtual time,
// in registration order.
func (p *Platform) StartApps() {
	for _, a := range p.order {
		a.Start()
	}
}

// testRunFailpoint, when non-nil, runs after the simulation horizon
// inside RunSpec.Run — a test seam for proving that a run which
// panics mid-collection still persists its metrics snapshot.
var testRunFailpoint func(*Platform)

// Run builds the platform, runs every app for spec.Duration, and
// collects the result. Each call is fully independent — fresh engine,
// fresh platform, fresh telemetry — so concurrent Runs of different
// specs never share state, and the same spec always reproduces the
// same result.
func (spec RunSpec) Run() (RunResult, error) {
	if spec.MetricsPath != "" || spec.MetricsSink != nil {
		spec.Telemetry = true
	}
	p, crit, err := BuildPlatform(spec)
	if err != nil {
		return RunResult{}, err
	}
	// The snapshot dump runs exactly once: explicitly on the success
	// path (so its error can be reported), or from the defer when the
	// run errors or panics — a failed run's telemetry is exactly the
	// evidence a diagnosis needs, so whatever accumulated is flushed
	// before unwinding.
	snapshotDone := false
	dumpSnapshot := func() error {
		if snapshotDone || p.Telemetry() == nil {
			return nil
		}
		snapshotDone = true
		p.SnapshotMetrics()
		if spec.MetricsSink != nil {
			var buf bytes.Buffer
			if err := p.Telemetry().Registry.WriteOpenMetrics(&buf); err != nil {
				return fmt.Errorf("core: run metrics snapshot: %w", err)
			}
			spec.MetricsSink(buf.Bytes())
		}
		if spec.MetricsPath != "" {
			if err := telemetry.WriteOutput(spec.MetricsPath, p.Telemetry().Registry.WriteOpenMetrics); err != nil {
				return fmt.Errorf("core: run metrics snapshot: %w", err)
			}
		}
		return nil
	}
	defer dumpSnapshot()
	p.StartApps()
	p.RunFor(spec.Duration)
	if testRunFailpoint != nil {
		testRunFailpoint(p)
	}
	res := RunResult{
		Crit:       crit.Stats(),
		RowHitRate: p.RowHitRate(),
	}
	for _, a := range p.order {
		if a != crit {
			res.HogStats = append(res.HogStats, a.Stats())
		}
	}
	if aud := p.Auditor(); aud != nil {
		if h := aud.App(crit.Name()); h != nil {
			res.CritViolations = h.Violations()
		}
		res.TotalViolations = aud.TotalViolations()
		for _, s := range aud.Snapshot() {
			res.AuditObserved += s.Observed
		}
	}
	if err := dumpSnapshot(); err != nil {
		return res, err
	}
	return res, nil
}
