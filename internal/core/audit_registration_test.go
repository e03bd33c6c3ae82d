package core

import (
	"bytes"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/dram/wcd"
	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// referenceContenders counts a's channel contenders by scanning every
// registered app.
func referenceContenders(p *Platform, a *App) int {
	if !p.distributed || p.cfg.ChannelMode != ChannelPartition {
		return len(p.apps) - 1
	}
	home := p.HomeChannel(a.cfg.Cluster)
	n := 0
	for _, o := range p.order {
		if o != a && p.HomeChannel(o.cfg.Cluster) == home {
			n++
		}
	}
	return n
}

// referenceBoundNS composes a's audit bound the direct way: a freshly
// derived WCD DRAM curve, referenceContenders, and the uncached netcalc
// operators. EnableAudit shares the DRAM curve per platform, keeps a
// per-channel app count and memoizes the operators; none of that may
// move a bound by one bit.
func referenceBoundNS(p *Platform, a *App) float64 {
	prof := a.cfg.Profile
	thinkNS := prof.Think.Nanoseconds()
	if thinkNS < 1 {
		thinkNS = 1
	}
	alpha := netcalc.TokenBucket(float64(prof.ReqBytes), float64(prof.ReqBytes)/thinkNS)
	contenders := referenceContenders(p, a)
	targets := p.chans
	if p.distributed && p.cfg.ChannelMode == ChannelPartition {
		home := p.HomeChannel(a.cfg.Cluster)
		targets = p.chans[home : home+1]
	}
	dramReq, err := wcd.ServiceCurve(wcd.DefaultParams(), 32)
	if err != nil {
		return 0
	}
	dramBytes := netcalc.Scale(dramReq, float64(prof.ReqBytes))
	var bound float64
	for _, ch := range targets {
		b := netcalc.DelayBoundThrough(alpha,
			p.mesh.ServiceCurve(a.cfg.Node, ch.node, contenders),
			dramBytes,
			p.mesh.ServiceCurve(ch.node, a.cfg.Node, contenders))
		if b > bound {
			bound = b
		}
	}
	if reg := p.ClusterRegulator(a.cfg.Cluster); reg != nil {
		if _, budgeted := reg.Bind(a.cfg.Name).Budget(); budgeted {
			bound += reg.Period().Nanoseconds()
		}
	}
	return bound
}

// interleavedPlatform builds a clustered 8x8 platform whose channels
// interleave rows, so every app contends on every channel.
func interleavedPlatform(t *testing.T) *Platform {
	t.Helper()
	spec := RunSpec{MeshWidth: 8, Clusters: 4, Channels: 4, Duration: sim.Microsecond}
	cfg := spec.platformConfig()
	cfg.ChannelMode = ChannelInterleave
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := trace.NewProfiles(trace.Infotainment, 0)
	for i, node := range []noc.Coord{{X: 0, Y: 0}, {X: 1, Y: 2}, {X: 3, Y: 5}, {X: 4, Y: 1}, {X: 6, Y: 7}, {X: 7, Y: 3}} {
		if err := buildHog(p, RunSpec{HogClass: trace.Infotainment, MemGuard: i%2 == 0, Seed: 3},
			profiles, i, node, p.ClusterOfColumn(node.X)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestAuditBoundsMatchReference pins every registered bound to the
// reference composition bit for bit, on the big mesh (ChannelPartition),
// a clustered ChannelInterleave platform, the legacy 6-hog platform and
// a legacy platform with two request sizes, including one app that
// joins after EnableAudit. The contender counts
// are compared on their own too: the NoC term rarely binds today, so a
// miscounted contender would seldom move a bound.
func TestAuditBoundsMatchReference(t *testing.T) {
	build := func(spec RunSpec) func(*testing.T) *Platform {
		return func(t *testing.T) *Platform {
			p, _, err := BuildPlatform(spec)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *Platform
		late  noc.Coord
	}{
		{"bigmesh", build(BigMeshSpec(0)), noc.Coord{X: 9, Y: 4}},
		{"interleave", interleavedPlatform, noc.Coord{X: 5, Y: 6}},
		{"legacy", build(RunSpec{Hogs: 6, HogClass: trace.Infotainment, MemGuard: true, Duration: sim.Millisecond}), noc.Coord{X: 2, Y: 3}},
		// 256-byte VisionPipeline hogs beside the 64-byte crit and late
		// apps: two request sizes, so two scaled DRAM curves.
		{"legacy-vision", build(RunSpec{Hogs: 2, HogClass: trace.VisionPipeline, MemGuard: true, Duration: sim.Millisecond}), noc.Coord{X: 2, Y: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t)
			want := make(map[string]float64, len(p.order)+1)
			checkContenders := func(a *App) {
				if got, ref := p.channelContenders(a), referenceContenders(p, a); got != ref {
					t.Errorf("%s: %d channel contenders, reference %d", a.cfg.Name, got, ref)
				}
			}
			for _, a := range p.order {
				want[a.cfg.Name] = referenceBoundNS(p, a)
				checkContenders(a)
			}
			aud, err := p.EnableAudit(AuditOptions{})
			if err != nil {
				t.Fatal(err)
			}
			prof, err := trace.NewProfile(trace.Infotainment, 1<<40, 99)
			if err != nil {
				t.Fatal(err)
			}
			late, err := p.AddApp(AppConfig{
				Name: "late", Node: tc.late, Cluster: p.ClusterOfColumn(tc.late.X), Scheme: 2, Profile: prof,
			})
			if err != nil {
				t.Fatal(err)
			}
			want["late"] = referenceBoundNS(p, late)
			checkContenders(late)

			finite := 0
			for _, a := range p.order {
				name := a.cfg.Name
				got := aud.App(name).Bound().DelayBoundNS
				if math.Float64bits(got) != math.Float64bits(want[name]) {
					t.Errorf("%s: bound %v, reference %v", name, got, want[name])
				}
				if got > 0 && !math.IsInf(got, 1) {
					finite++
				}
			}
			if finite == 0 {
				t.Fatal("no app got a finite analytic bound; the comparison is vacuous")
			}
		})
	}
}

// TestBigMeshAuditRegistrationUnchanged pins what arming the auditor
// produces: the netcalc cache's call sequence (hits, misses and
// interned curves, which bench/fingerprints.json hashes through the
// metrics dump) and every app's registered contract, as an FNV-1a hash
// over name, bound bits and budget in registration order. Reusing
// curve values, interning by backing array and configuring MPAM once
// per PARTID must leave both exactly as they were. The big mesh runs
// one workload class; the legacy platform adds a second (crit and the
// Infotainment hogs differ in think time), whose token buckets differ
// only in rate, which no bound shows but the interned count does.
func TestBigMeshAuditRegistrationUnchanged(t *testing.T) {
	legacy := RunSpec{Hogs: 6, HogClass: trace.Infotainment, DSU: true, MemGuard: true, MPAM: true, Duration: sim.Millisecond}
	for _, tc := range []struct {
		name                   string
		spec                   RunSpec
		hits, misses, interned uint64
		apps                   int
		boundsHash             uint64
	}{
		{"bigmesh", BigMeshSpec(0), 1485, 51, 45, 512, 0x9fa62d4773344881},
		{"legacy-protected", legacy, 6, 15, 17, 7, 0x96e77601b22a461b},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Audit = true
			p, _, err := BuildPlatform(spec)
			if err != nil {
				t.Fatal(err)
			}
			st := p.ncCache.Stats()
			if st.Hits != tc.hits || st.Misses != tc.misses || st.InternedCurves != tc.interned {
				t.Errorf("netcalc cache: %d hits, %d misses, %d interned; want %d, %d, %d",
					st.Hits, st.Misses, st.InternedCurves, tc.hits, tc.misses, tc.interned)
			}
			h := fnv.New64a()
			aud := p.Auditor()
			for _, name := range aud.Apps() {
				b := aud.App(name).Bound()
				h.Write([]byte(name))
				h.Write([]byte(strconv.FormatUint(math.Float64bits(b.DelayBoundNS), 16)))
				h.Write([]byte(strconv.Itoa(b.BudgetBytesPerPeriod)))
			}
			if got := h.Sum64(); got != tc.boundsHash || len(aud.Apps()) != tc.apps {
				t.Errorf("%d registered bounds hash to %#x, want %d hashing to %#x",
					len(aud.Apps()), got, tc.apps, tc.boundsHash)
			}
		})
	}
}

// TestEnableAuditAllocation gates what arming the auditor costs on the
// big mesh: per-app registration must stay a few KiB, not a dense
// histogram array per attribution stage.
func TestEnableAuditAllocation(t *testing.T) {
	spec := BigMeshSpec(0)
	spec.Telemetry = true
	p, _, err := BuildPlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.EnableAudit(AuditOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("EnableAudit on %d apps allocated %d B, want < %d", len(p.order), got, limit)
	}
}

// TestBigMeshSetupAllocBudget gates what the big mesh costs before its
// first event: one BuildPlatform plus EnableAudit, the setup a bigmesh
// run pays, within 1.125 MiB and 1,800 heap objects (1,140,296 B in
// 1,727 objects today, 1,140,568 B in 1,727 under -race). Apps, their
// profiles and patterns, regulator entities and app auditors come from
// per-platform arrays, names from one buffer, a histogram holds no
// counter until it records and no exemplar until one is offered, cache
// sets cost a 4-byte index entry until installed, and the audit
// curves, MPAM partitions and router closures are built once or on
// first use, so an eager per-app, per-set or per-bucket allocation
// fails here.
func TestBigMeshSetupAllocBudget(t *testing.T) {
	const maxBytes, maxObjects = 9 << 20 / 8, 1_800 // 1.125 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, _, err := BuildPlatform(BigMeshSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableAudit(AuditOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("big-mesh setup: %d B in %d objects", bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("big-mesh setup allocated %d B in %d objects, want <= %d B and <= %d objects",
			bytes, objects, maxBytes, maxObjects)
	}
}

// TestBigMeshRunHeapBudget gates the live heap a big-mesh run holds
// after its 50 us horizon: BuildPlatform with telemetry, EnableAudit,
// StartApps and RunFor, then a full GC. That heap sets the collector's
// goal for the snapshot and dump that follow, so it bounds a bigmesh
// run's peak RSS. The run fills 5120 latency histograms (the
// auditor's eight per app, one per app, one per DRAM master) with
// ~5 touched sub-buckets each, so a histogram that held one 256 B
// block per touched octave (12k blocks here) fails the gate. It holds
// about 2.75 MB today.
func TestBigMeshRunHeapBudget(t *testing.T) {
	const maxBytes = 3 << 20
	spec := BigMeshSpec(0)
	spec.Telemetry = true
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, _, err := BuildPlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableAudit(AuditOptions{}); err != nil {
		t.Fatal(err)
	}
	p.StartApps()
	p.RunFor(spec.Duration)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("big-mesh live heap after a %v run: %d B", spec.Duration, live)
	if live > maxBytes {
		t.Errorf("big-mesh run holds %d B of live heap, want <= %d B", live, maxBytes)
	}
}

// BenchmarkBigMeshSetup measures the setup a bigmesh run pays before
// its first event, layer by layer: build is BuildPlatform, audit is
// EnableAudit on a freshly built platform (the build is untimed). Each
// op starts from a collected heap (runtime.GC, untimed), as a fresh
// socsim process does and as the repository benchmark times setup_s,
// so neither half pays for the previous op's garbage.
//
//	go test ./internal/core/ -run '^$' -bench BigMeshSetup -benchmem
func BenchmarkBigMeshSetup(b *testing.B) { benchSetup(b, BigMeshSpec(0)) }

// BenchmarkLegacySetup is BenchmarkBigMeshSetup on the legacy 4x4
// platform with six Infotainment hogs and no QoS mechanism, the
// legacy-contended workload's spec. Its audit half is almost all
// analytic bound composition: seven registrations, each a token bucket
// through NoC, WCD DRAM and NoC service curves.
//
//	go test ./internal/core/ -run '^$' -bench LegacySetup -benchmem
func BenchmarkLegacySetup(b *testing.B) {
	benchSetup(b, RunSpec{Hogs: 6, HogClass: trace.Infotainment, Duration: sim.Millisecond, Seed: 1, Telemetry: true})
}

// benchSetup times BuildPlatform (build) and EnableAudit on a freshly
// built platform (audit) for spec, each op from a collected heap.
func benchSetup(b *testing.B, spec RunSpec) {
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			if _, _, err := BuildPlatform(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("audit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, _, err := BuildPlatform(spec)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.StartTimer()
			if _, err := p.EnableAudit(AuditOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestBigMeshSnapshotAllocBudget bounds the end-of-run dump of a
// bigmesh run as every in-memory consumer takes it: SnapshotMetrics,
// then WriteOpenMetrics into a fresh bytes.Buffer. WriteOpenMetrics
// sizes the exposition and grows such a buffer once, so the render
// allocates at most 1.6 times the bytes it writes (a buffer grown by
// doubling allocated 2.8 times). SnapshotMetrics' first call registers
// the per-app gauges and histograms, about 0.6 times the dump more, so
// the two together stay within twice the dump (3.4 times when the
// buffer doubled).
func TestBigMeshSnapshotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("bytes.Buffer allocation figures do not hold under the race detector (see race_test.go)")
	}
	spec := BigMeshSpec(0)
	spec.Telemetry = true
	p, _, err := BuildPlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableAudit(AuditOptions{}); err != nil {
		t.Fatal(err)
	}
	p.StartApps()
	p.RunFor(spec.Duration)
	var start, snapped, dumped runtime.MemStats
	runtime.ReadMemStats(&start)
	p.SnapshotMetrics()
	runtime.ReadMemStats(&snapped)
	var buf bytes.Buffer
	if err := p.Telemetry().Registry.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&dumped)
	snap := snapped.TotalAlloc - start.TotalAlloc
	dump := dumped.TotalAlloc - snapped.TotalAlloc
	written := uint64(buf.Len())
	t.Logf("big-mesh dump of %d B: snapshot allocated %d B (%.2fx), render %d B (%.2fx)",
		written, snap, float64(snap)/float64(written), dump, float64(dump)/float64(written))
	if limit := written * 8 / 5; dump > limit {
		t.Errorf("rendering the big-mesh dump allocated %d B for %d B of output, want <= %d B (1.6x)", dump, written, limit)
	}
	if limit := 2 * written; snap+dump > limit {
		t.Errorf("big-mesh snapshot + dump allocated %d B for %d B of output, want <= %d B (2x)", snap+dump, written, limit)
	}
}
