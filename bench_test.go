// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation, plus the X-experiments and
// ablations indexed in DESIGN.md. Each benchmark prints its artifact
// (the rows or series the paper reports) once, then measures the
// computation for -bench timing.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpa"
	"repro/internal/dram"
	"repro/internal/dram/wcd"
	"repro/internal/dsu"
	"repro/internal/memguard"
	"repro/internal/mpam"
	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var printGuards sync.Map

// printOnce emits a benchmark's artifact a single time per process.
func printOnce(key string, emit func()) {
	if _, loaded := printGuards.LoadOrStore(key, true); !loaded {
		emit()
	}
}

// BenchmarkTableI regenerates Table I: the DDR3-1600 timing parameters
// the WCD analysis consumes.
func BenchmarkTableI(b *testing.B) {
	printOnce("T1", func() {
		t := dram.DDR3_1600()
		fmt.Println("\n[Table I] DRAM timing parameters (ns), DDR3-1600:")
		rows := [][2]interface{}{
			{"tCK", t.TCK.Nanoseconds()}, {"tBurst", t.TBurst.Nanoseconds()},
			{"tRCD", t.TRCD.Nanoseconds()}, {"tCL", t.TCL.Nanoseconds()},
			{"tRP", t.TRP.Nanoseconds()}, {"tRAS", t.TRAS.Nanoseconds()},
			{"tRRD", t.TRRD.Nanoseconds()}, {"tXAW", t.TXAW.Nanoseconds()},
			{"tRFC", t.TRFC.Nanoseconds()}, {"tWR", t.TWR.Nanoseconds()},
			{"tWTR", t.TWTR.Nanoseconds()}, {"tRTP", t.TRTP.Nanoseconds()},
			{"tRTW", t.TRTW.Nanoseconds()}, {"tCS", t.TCS.Nanoseconds()},
			{"tREFI", t.TREFI.Nanoseconds()}, {"tXP", t.TXP.Nanoseconds()},
			{"tXS", t.TXS.Nanoseconds()},
		}
		for _, r := range rows {
			fmt.Printf("  %-8s %v\n", r[0], r[1])
		}
	})
	for i := 0; i < b.N; i++ {
		tm := dram.DDR3_1600()
		if err := tm.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// paperTableII holds the published Table II values for side-by-side
// comparison (ns).
var paperTableII = []struct {
	gbps         float64
	lower, upper float64
}{
	{4, 1971.711, 1977.542},
	{5, 2957.983, 2963.814},
	{6, 3934.259, 3950.086},
	{7, 5886.811, 6908.902},
}

// BenchmarkTableII regenerates Table II: upper and lower WCD bounds
// versus the write arrival rate, next to the paper's published values.
func BenchmarkTableII(b *testing.B) {
	params := wcd.DefaultParams()
	printOnce("T2", func() {
		rows, err := wcd.TableII(params, 1, []float64{4, 5, 6, 7})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Println("\n[Table II] Upper and lower bounds on the WCD (ns):")
		fmt.Printf("  %-11s %-22s %-22s\n", "Write rate", "this repo (lo / up)", "paper (lo / up)")
		for i, r := range rows {
			p := paperTableII[i]
			fmt.Printf("  %-11s %9.3f / %-10.3f %9.3f / %-10.3f\n",
				fmt.Sprintf("%g Gbps", r.WriteRateGbps), r.Lower, r.Upper, p.lower, p.upper)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wcd.TableII(params, 1, []float64{4, 5, 6, 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates the Fig. 2 worked example: encoding the
// hypervisor/GPOS/RTOS partition assignment into CLUSTERPARTCR.
func BenchmarkFig2(b *testing.B) {
	assign := map[dsu.SchemeID][]dsu.Group{7: {3}, 3: {2}, 2: {1}, 0: {0}}
	printOnce("F2", func() {
		reg, err := dsu.Encode(assign)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n[Fig 2] CLUSTERPARTCR encoding (scheme-ID nibbles, one-hot group):\n")
		fmt.Printf("  hypervisor s7 -> group 3, RTOS s3 -> group 2, RTOS s2 -> group 1, GPOS s0 -> group 0\n")
		fmt.Printf("  register = %#08x (paper: 0x80004201)\n", uint32(reg))
		for g := dsu.Group(0); g < dsu.NumGroups; g++ {
			fmt.Printf("  group %d owners: %v\n", g, reg.Owners(g))
		}
	})
	for i := 0; i < b.N; i++ {
		if _, err := dsu.Encode(assign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3: an 8-portion MPAM cache shared
// between two PARTIDs with private and shared portions.
func BenchmarkFig3(b *testing.B) {
	build := func() *mpam.CachePortionControl {
		ctl, err := mpam.NewCachePortionControl(8)
		if err != nil {
			b.Fatal(err)
		}
		if err := ctl.Grant(1, 0, 1, 2, 3); err != nil {
			b.Fatal(err)
		}
		if err := ctl.Grant(2, 3, 4, 5, 6); err != nil {
			b.Fatal(err)
		}
		return ctl
	}
	printOnce("F3", func() {
		ctl := build()
		fmt.Println("\n[Fig 3] MPAM cache-portion bitmaps (8 portions, 2 PARTIDs):")
		for _, id := range []mpam.PARTID{1, 2} {
			fmt.Printf("  PARTID %d: ", id)
			for p := 0; p < 8; p++ {
				if ctl.Allowed(id, p) {
					fmt.Printf("%d ", p)
				} else {
					fmt.Printf(". ")
				}
			}
			fmt.Println()
		}
		fmt.Println("  portion 3 is shared; 0-2 private to PARTID 1; 4-6 private to PARTID 2")
	})
	for i := 0; i < b.N; i++ {
		build()
	}
}

// BenchmarkFig4 exercises the Fig. 4 controller model: FR-FCFS with
// separate read/write queues on a mixed trace; reports simulated
// requests per wall second.
func BenchmarkFig4(b *testing.B) {
	run := func() dram.Stats {
		eng := sim.NewEngine()
		ctrl, err := dram.NewController(eng, dram.DefaultConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		rnd := sim.NewRand(1)
		for i := 0; i < 2000; i++ {
			op := dram.Read
			if rnd.Intn(3) == 0 {
				op = dram.Write
			}
			req := &dram.Request{Op: op, Bank: rnd.Intn(8), Row: int64(rnd.Intn(16))}
			eng.At(sim.Duration(i)*sim.NS(30), func() { _ = ctrl.Submit(req) })
		}
		eng.Run()
		return ctrl.Stats()
	}
	printOnce("F4", func() {
		st := run()
		fmt.Printf("\n[Fig 4] FR-FCFS controller on a 2000-request mixed trace:\n")
		fmt.Printf("  row hits %d, closed %d, conflicts %d (hit rate %.2f)\n",
			st.RowHits, st.RowClosed, st.RowConflicts, st.RowHitRate())
		fmt.Printf("  hit promotions %d, mode switches %d, refreshes %d\n",
			st.HitPromotions, st.ModeSwitches, st.Refreshes)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFig5 regenerates the Fig. 5 watermark behaviour: write-queue
// fill level against the W_high/W_low thresholds and the resulting
// batched drains.
func BenchmarkFig5(b *testing.B) {
	type sample struct {
		at     sim.Time
		writes int
		mode   dram.Mode
	}
	run := func() []sample {
		eng := sim.NewEngine()
		cfg := dram.DefaultConfig()
		cfg.WHigh = 12
		cfg.WLow = 4
		cfg.NWd = 4
		cfg.WriteQueueCap = 64
		ctrl, err := dram.NewController(eng, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Steady reads keep the controller in read mode; writes pile
		// up to W_high, forcing batched drains.
		for i := 0; i < 200; i++ {
			at := sim.Duration(i) * sim.NS(50)
			eng.At(at, func() {
				_ = ctrl.Submit(&dram.Request{Op: dram.Read, Bank: 0, Row: int64(i % 4)})
			})
		}
		for i := 0; i < 60; i++ {
			at := sim.Duration(i) * sim.NS(120)
			eng.At(at, func() {
				_ = ctrl.Submit(&dram.Request{Op: dram.Write, Bank: 1, Row: int64(i % 2)})
			})
		}
		var samples []sample
		for i := 0; i < 100; i++ {
			at := sim.Duration(i) * sim.NS(100)
			eng.At(at, func() {
				_, w := ctrl.QueueDepths()
				samples = append(samples, sample{eng.Now(), w, ctrl.Mode()})
			})
		}
		eng.Run()
		return samples
	}
	printOnce("F5", func() {
		samples := run()
		fmt.Println("\n[Fig 5] watermark policy: write-queue level and bus mode over time")
		fmt.Println("  (W_high=12, W_low=4, N_wd=4; one row per us)")
		for i, s := range samples {
			if i%10 != 0 {
				continue
			}
			bar := ""
			for k := 0; k < s.writes; k++ {
				bar += "#"
			}
			fmt.Printf("  t=%6s writes=%2d %-5s %s\n", s.at, s.writes, s.mode, bar)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFig6 regenerates the Fig. 6 architecture end to end: an
// application's first transmission trapped by its client, admitted by
// the RM, and the measured admission round trip.
func BenchmarkFig6(b *testing.B) {
	run := func() (sim.Duration, admission.Stats) {
		eng := sim.NewEngine()
		mesh, err := noc.New(eng, noc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, admission.Symmetric{TotalBytesPerNS: 1.6})
		if err != nil {
			b.Fatal(err)
		}
		cl, err := sys.Client(noc.Coord{X: 3, Y: 3})
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Register("app", admission.BestEffort); err != nil {
			b.Fatal(err)
		}
		_ = cl.Submit("app", &noc.Packet{Dst: noc.Coord{X: 1, Y: 1}, Bytes: 64})
		eng.Run()
		lat, err := cl.AdmissionLatency("app")
		if err != nil {
			b.Fatal(err)
		}
		return lat, sys.Stats()
	}
	printOnce("F6", func() {
		lat, st := run()
		fmt.Println("\n[Fig 6] E2E admission control on a 4x4 mesh (RM at (0,0)):")
		fmt.Printf("  first transmission trapped, admitted after %v\n", lat)
		fmt.Printf("  protocol messages: act=%d stop=%d conf=%d\n",
			st.Messages[admission.ActMsg], st.Messages[admission.StopMsg], st.Messages[admission.ConfMsg])
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFig7 regenerates Fig. 7: adaptive injection rates per
// system mode, symmetric and non-symmetric.
func BenchmarkFig7(b *testing.B) {
	sym := admission.Symmetric{TotalBytesPerNS: 1.6}
	nonsym := admission.NonSymmetric{TotalBytesPerNS: 1.6, CriticalBytesPerNS: 0.4, FloorBytesPerNS: 0.01}
	series := func(policy admission.RatePolicy, crit int) [][2]float64 {
		var out [][2]float64
		var active []admission.AppRef
		for m := 1; m <= 8; m++ {
			c := admission.BestEffort
			if m <= crit {
				c = admission.Critical
			}
			active = append(active, admission.AppRef{Name: fmt.Sprintf("a%d", m), Crit: c})
			rates := admission.Rates(policy, active)
			out = append(out, [2]float64{rates[fmt.Sprintf("a%d", 1)], rates[fmt.Sprintf("a%d", m)]})
		}
		return out
	}
	printOnce("F7", func() {
		fmt.Println("\n[Fig 7] injection rate (B/ns) vs system mode:")
		fmt.Printf("  %-6s %-22s %-28s\n", "mode", "symmetric (any app)", "non-symmetric (crit / newest)")
		s := series(sym, 0)
		n := series(nonsym, 1)
		for m := 1; m <= 8; m++ {
			fmt.Printf("  %-6d %-22.3f %.3f / %.3f\n", m, s[m-1][1], n[m-1][0], n[m-1][1])
		}
	})
	for i := 0; i < b.N; i++ {
		series(sym, 0)
		series(nonsym, 1)
	}
}

// BenchmarkContentionInflation is experiment X1: read-latency
// inflation of a critical control loop under co-runner contention on
// the platform model, and its restoration by DSU + MemGuard (the
// paper's motivating measurement from [2] reports up to 8x).
func BenchmarkContentionInflation(b *testing.B) {
	runCase := func(hogs int, protect bool, horizon sim.Duration) core.AppStats {
		p, err := core.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		critProf, err := trace.NewProfile(trace.ControlLoop, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		crit, err := p.AddApp(core.AppConfig{
			Name: "crit", Node: noc.Coord{X: 0, Y: 0}, Cluster: 0, Scheme: 1, Profile: critProf,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < hogs; i++ {
			name := fmt.Sprintf("hog%d", i)
			prof, err := trace.NewProfile(trace.Infotainment, uint64(i+1)<<30, uint64(i)+5)
			if err != nil {
				b.Fatal(err)
			}
			h, err := p.AddApp(core.AppConfig{
				Name: name, Node: noc.Coord{X: 1 + i%3, Y: i / 3 % 4}, Cluster: 0,
				Scheme: dsu.SchemeID(2 + i%6), Profile: prof,
			})
			if err != nil {
				b.Fatal(err)
			}
			if protect {
				if err := p.SetMemBudget(name, 16<<10); err != nil {
					b.Fatal(err)
				}
			}
			h.Start()
		}
		if protect {
			reg, err := dsu.Encode(map[dsu.SchemeID][]dsu.Group{1: {0, 1}})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.ProgramDSU(0, reg); err != nil {
				b.Fatal(err)
			}
		}
		crit.Start()
		p.RunFor(horizon)
		return crit.Stats()
	}
	printOnce("X1", func() {
		solo := runCase(0, false, 4*sim.Millisecond)
		cont := runCase(6, false, 4*sim.Millisecond)
		prot := runCase(6, true, 4*sim.Millisecond)
		fmt.Println("\n[X1] critical read latency under contention (6 infotainment hogs):")
		fmt.Printf("  %-12s %-10s %-10s %-10s\n", "config", "mean(ns)", "p95(ns)", "max(ns)")
		for _, r := range []struct {
			name string
			st   core.AppStats
		}{{"solo", solo}, {"contended", cont}, {"protected", prot}} {
			fmt.Printf("  %-12s %-10.1f %-10.1f %-10.1f\n", r.name,
				r.st.MeanReadLatency.Nanoseconds(), r.st.P95ReadLatency.Nanoseconds(),
				r.st.MaxReadLatency.Nanoseconds())
		}
		fmt.Printf("  p95 inflation %.1fx, restored to %.1fx by DSU+MemGuard\n",
			cont.P95ReadLatency.Nanoseconds()/solo.P95ReadLatency.Nanoseconds(),
			prot.P95ReadLatency.Nanoseconds()/solo.P95ReadLatency.Nanoseconds())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCase(2, false, sim.Millisecond)
	}
}

// BenchmarkCacheColoring is experiment X2: coloring isolates but
// shrinks the effective cache, raising miss rates for working sets
// that no longer fit.
func BenchmarkCacheColoring(b *testing.B) {
	run := func(colors []int, steps int) float64 {
		cl, err := dsu.NewCluster(dsu.Config{Ways: 16, Sets: 512, LineSize: 64})
		if err != nil {
			b.Fatal(err)
		}
		col, err := cache.NewColoring(cl.L3().Config(), 4096)
		if err != nil {
			b.Fatal(err)
		}
		if colors != nil {
			if err := col.Assign(1, colors); err != nil {
				b.Fatal(err)
			}
		}
		pat, err := trace.NewSequential(0, 256<<10, 64)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			cl.Access(1, col.Translate(1, pat.Next()), false)
		}
		st := cl.L3().Stats(1)
		return float64(st.Misses) / float64(st.Hits+st.Misses)
	}
	printOnce("X2", func() {
		fmt.Println("\n[X2] page coloring capacity cost (256KiB working set, 512KiB L3, 8 colors):")
		for _, c := range []struct {
			name   string
			colors []int
		}{
			{"uncolored (full cache)", nil},
			{"4/8 colors (256KiB eff.)", []int{0, 1, 2, 3}},
			{"2/8 colors (128KiB eff.)", []int{0, 1}},
			{"1/8 colors (64KiB eff.)", []int{0}},
		} {
			fmt.Printf("  %-26s miss rate %.3f\n", c.name, run(c.colors, 200_000))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run([]int{0, 1}, 50_000)
	}
}

// BenchmarkMemguard is experiment X3: regulation isolates bandwidth
// but overhead grows with the number of regulated entities.
func BenchmarkMemguard(b *testing.B) {
	run := func(entities int) sim.Duration {
		eng := sim.NewEngine()
		reg, err := memguard.New(eng, memguard.Config{Period: sim.Microsecond, InterruptOverhead: sim.NS(500)})
		if err != nil {
			b.Fatal(err)
		}
		per := 2048 / entities
		es := make([]*memguard.Entity, entities)
		for i := range es {
			es[i] = reg.Bind(fmt.Sprintf("e%d", i))
			if err := es[i].SetBudget(per); err != nil {
				b.Fatal(err)
			}
		}
		for step := 0; step < 100; step++ {
			at := sim.Duration(step) * sim.NS(200)
			eng.At(at, func() {
				for _, e := range es {
					_ = e.Request(2*per, nil)
				}
			})
		}
		eng.Run()
		return reg.Overhead()
	}
	printOnce("X3", func() {
		fmt.Println("\n[X3] MemGuard regulation overhead vs granularity (same total traffic):")
		for _, n := range []int{1, 2, 4, 8, 16} {
			fmt.Printf("  %2d entities: overhead %v\n", n, run(n))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(4)
	}
}

// BenchmarkAdmissionModes is experiment X5: symmetric vs non-symmetric
// guarantees while apps join — the critical flow's throughput under
// each policy.
func BenchmarkAdmissionModes(b *testing.B) {
	run := func(policy admission.RatePolicy, horizon sim.Duration) (critBytes uint64) {
		eng := sim.NewEngine()
		mesh, err := noc.New(eng, noc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, policy)
		if err != nil {
			b.Fatal(err)
		}
		crit, err := sys.Client(noc.Coord{X: 1, Y: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := crit.Register("crit", admission.Critical); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 3000; k++ {
			_ = crit.Submit("crit", &noc.Packet{Dst: noc.Coord{X: 2, Y: 1}, Bytes: 64})
		}
		for i := 0; i < 5; i++ {
			i := i
			node := noc.Coord{X: i % 4, Y: 3}
			cl, err := sys.Client(node)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("be%d", i)
			if err := cl.Register(name, admission.BestEffort); err != nil {
				b.Fatal(err)
			}
			eng.At(sim.Duration(i+1)*5*sim.Microsecond, func() {
				for k := 0; k < 1000; k++ {
					_ = cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 0}, Bytes: 64})
				}
			})
		}
		eng.RunUntil(horizon)
		return crit.Sent("crit")
	}
	printOnce("X5", func() {
		sym := run(admission.Symmetric{TotalBytesPerNS: 1.6}, 60*sim.Microsecond)
		non := run(admission.NonSymmetric{TotalBytesPerNS: 1.6, CriticalBytesPerNS: 0.8, FloorBytesPerNS: 0.05},
			60*sim.Microsecond)
		fmt.Println("\n[X5] critical throughput over 60us while 5 best-effort apps join:")
		fmt.Printf("  symmetric policy:     %d bytes (degrades with mode)\n", sym)
		fmt.Printf("  non-symmetric policy: %d bytes (guarantee preserved)\n", non)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(admission.Symmetric{TotalBytesPerNS: 1.6}, 20*sim.Microsecond)
	}
}

// BenchmarkAblationNCap sweeps the hit-promotion cap: larger N_cap
// raises the WCD bound (ablation 1 in DESIGN.md).
func BenchmarkAblationNCap(b *testing.B) {
	printOnce("A1", func() {
		fmt.Println("\n[ablation] WCD upper bound vs N_cap (5 Gbps writes):")
		for _, ncap := range []int{0, 4, 8, 16, 32, 64} {
			p := wcd.DefaultParams().WithWriteRateGbps(5)
			p.NCap = ncap
			res, err := wcd.Compute(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("  N_cap=%-3d upper %.1f ns\n", ncap, res.Upper)
		}
	})
	p := wcd.DefaultParams().WithWriteRateGbps(5)
	for i := 0; i < b.N; i++ {
		if _, err := wcd.Compute(p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWatermark sweeps the write batch length N_wd:
// longer batches amortize turnarounds but delay reads longer per
// switch (ablation 2).
func BenchmarkAblationWatermark(b *testing.B) {
	printOnce("A2", func() {
		fmt.Println("\n[ablation] WCD upper bound vs N_wd (5 Gbps writes):")
		for _, nwd := range []int{4, 8, 16, 32, 64} {
			p := wcd.DefaultParams().WithWriteRateGbps(5)
			p.NWd = nwd
			res, err := wcd.Compute(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("  N_wd=%-3d upper %.1f ns\n", nwd, res.Upper)
		}
	})
	p := wcd.DefaultParams().WithWriteRateGbps(5)
	for i := 0; i < b.N; i++ {
		if _, err := wcd.Compute(p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScheduling compares partitioned and global
// fixed-priority scheduling on the same task set (ablation 3).
func BenchmarkAblationScheduling(b *testing.B) {
	msf := func(v float64) sim.Duration { return sim.US(v * 1000) }
	tasks := []sched.Task{
		{Name: "crit", Period: msf(10), WCET: msf(3), Priority: 1, Core: 0, Crit: sched.ASILD},
		{Name: "mid", Period: msf(8), WCET: msf(3), Priority: 5, Core: 1},
		{Name: "noisy", Period: msf(5), WCET: msf(4), Priority: 9, Core: 1},
	}
	run := func(policy sched.Policy) map[string]sched.TaskStats {
		eng := sim.NewEngine()
		s, err := sched.NewSimulator(eng, sched.Config{Cores: 2, Policy: policy}, tasks)
		if err != nil {
			b.Fatal(err)
		}
		return s.Run(msf(500))
	}
	printOnce("A3", func() {
		part := run(sched.Partitioned)
		glob := run(sched.Global)
		fmt.Println("\n[ablation] partitioned vs global scheduling (crit on its own core when partitioned):")
		fmt.Printf("  partitioned: crit max response %v, misses %d\n",
			part["crit"].MaxResponse, part["crit"].DeadlineMisses)
		fmt.Printf("  global:      crit max response %v, misses %d\n",
			glob["crit"].MaxResponse, glob["crit"].DeadlineMisses)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(sched.Partitioned)
	}
}

// BenchmarkAblationColoringVsWays compares software coloring against
// hardware way partitioning at equal capacity (ablation 4): same
// isolation, different flexibility/utilization trade-off.
func BenchmarkAblationColoringVsWays(b *testing.B) {
	victim := func(mode string) (hitRate float64) {
		cl, err := dsu.NewCluster(dsu.Config{Ways: 16, Sets: 512, LineSize: 64})
		if err != nil {
			b.Fatal(err)
		}
		col, err := cache.NewColoring(cl.L3().Config(), 4096)
		if err != nil {
			b.Fatal(err)
		}
		switch mode {
		case "ways":
			reg, err := dsu.Encode(map[dsu.SchemeID][]dsu.Group{1: {0, 1}})
			if err != nil {
				b.Fatal(err)
			}
			cl.Program(reg)
		case "colors":
			if err := col.Assign(1, []int{0, 1, 2, 3}); err != nil {
				b.Fatal(err)
			}
			if err := col.Assign(0, []int{4, 5, 6, 7}); err != nil {
				b.Fatal(err)
			}
		}
		translate := func(owner dsu.SchemeID, a uint64) uint64 {
			if mode == "colors" {
				return col.Translate(cache.Owner(owner), a)
			}
			return a
		}
		vp, err := trace.NewSequential(0, 128<<10, 64)
		if err != nil {
			b.Fatal(err)
		}
		tp, err := trace.NewSequential(1<<30, 4<<20, 64)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2048; i++ {
			cl.Access(1, translate(1, vp.Next()), false)
		}
		for i := 0; i < 500_000; i++ {
			if i%8 == 0 {
				cl.Access(1, translate(1, vp.Next()), false)
			} else {
				cl.Access(0, translate(0, tp.Next()), false)
			}
		}
		st := cl.L3().Stats(1)
		return float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	printOnce("A4", func() {
		fmt.Println("\n[ablation] SW coloring vs HW way partitioning (same 50% capacity):")
		fmt.Printf("  unmanaged: victim hit rate %.3f\n", victim("open"))
		fmt.Printf("  coloring:  victim hit rate %.3f\n", victim("colors"))
		fmt.Printf("  DSU ways:  victim hit rate %.3f\n", victim("ways"))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim("ways")
	}
}

// BenchmarkAblationCPAvsAdmission compares a flat CPA fixed-point
// analysis of two interfering chains against the admission-controlled
// view where shaped sources decouple the resources (ablation 5 /
// Section V's simplification claim).
func BenchmarkAblationCPAvsAdmission(b *testing.B) {
	us := func(v float64) sim.Duration { return sim.US(v) }
	buildFlat := func() (*cpa.System, error) {
		s := cpa.NewSystem()
		if err := s.AddTask(cpa.Task{Name: "a1", Resource: "noc", WCET: us(10), BCET: us(5), Priority: 2,
			Input: cpa.EventModel{P: us(100)}}); err != nil {
			return nil, err
		}
		if err := s.AddTask(cpa.Task{Name: "a2", Resource: "dram", WCET: us(20), BCET: us(10), Priority: 1}); err != nil {
			return nil, err
		}
		if err := s.AddTask(cpa.Task{Name: "b1", Resource: "dram", WCET: us(15), BCET: us(15), Priority: 2,
			Input: cpa.EventModel{P: us(150)}}); err != nil {
			return nil, err
		}
		if err := s.AddTask(cpa.Task{Name: "b2", Resource: "noc", WCET: us(25), BCET: us(25), Priority: 1}); err != nil {
			return nil, err
		}
		if err := s.AddChain("A", "a1", "a2"); err != nil {
			return nil, err
		}
		if err := s.AddChain("B", "b1", "b2"); err != nil {
			return nil, err
		}
		return s, nil
	}
	printOnce("A5", func() {
		s, err := buildFlat()
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Analyze(0)
		if err != nil {
			b.Fatal(err)
		}
		latA, _ := s.PathLatency("A", res)
		latB, _ := s.PathLatency("B", res)
		fmt.Println("\n[ablation] flat CPA vs admission-simplified analysis:")
		fmt.Printf("  flat CPA:  chain A %v, chain B %v (global fixed point over coupled resources)\n", latA, latB)
		// Admission-controlled: the RM reserves each chain a fixed
		// share of every resource, so a chain's bound is a single
		// Network Calculus composition — no cross-chain fixed point.
		// Chain A: 10us of NoC work + 20us of DRAM work per 100us,
		// each resource reserving a 50% share.
		alphaA := netcalc.TokenBucket(30, 0.3) // us of work, us time
		svc := netcalc.ConvolveAll(netcalc.RateLatency(0.5, 10), netcalc.RateLatency(0.5, 20))
		fmt.Printf("  admission: chain A bound %.1f us from one convolution of reserved shares\n",
			netcalc.DelayBound(alphaA, svc))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := buildFlat()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Analyze(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoherence quantifies the coherence interference the
// paper's introduction names among the dynamic memory-system effects:
// the same write stream costs several times more when another cluster
// ping-pongs the line.
func BenchmarkAblationCoherence(b *testing.B) {
	run := func(pingpong bool, writes int) sim.Duration {
		d, err := coherence.New(2, 6, coherence.DefaultCosts())
		if err != nil {
			b.Fatal(err)
		}
		var total sim.Duration
		for i := 0; i < writes; i++ {
			c := 0
			if pingpong {
				c = i % 2
			}
			r, err := d.Access(c, 0x1000, true)
			if err != nil {
				b.Fatal(err)
			}
			total += r.Latency
		}
		return total
	}
	printOnce("A6", func() {
		private := run(false, 1000)
		shared := run(true, 1000)
		fmt.Println("\n[ablation] coherence interference (1000 writes to one line):")
		fmt.Printf("  private line:   %v total (%.1f ns/write)\n", private, private.Nanoseconds()/1000)
		fmt.Printf("  ping-pong line: %v total (%.1f ns/write, %.1fx)\n", shared,
			shared.Nanoseconds()/1000, float64(shared)/float64(private))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(true, 200)
	}
}

// BenchmarkAblationAdmission compares a critical flow's latency tail
// with and without the admission-control overlay under bursty
// best-effort load (DESIGN.md ablation 5).
func BenchmarkAblationAdmission(b *testing.B) {
	run := func(managed bool, horizon sim.Duration) (p95 float64) {
		eng := sim.NewEngine()
		mesh, err := noc.New(eng, noc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		var lats []sim.Duration
		critSend := func(submit func(*noc.Packet) error) {
			for k := 0; k < 400; k++ {
				k := k
				eng.At(sim.Duration(k)*sim.NS(200), func() {
					pkt := &noc.Packet{Dst: noc.Coord{X: 3, Y: 0}, Bytes: 64, Flow: "crit"}
					var submitted sim.Time = eng.Now()
					pkt.OnDelivered = func(at sim.Time) { lats = append(lats, at-submitted) }
					_ = submit(pkt)
				})
			}
		}
		if managed {
			sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 3},
				admission.NonSymmetric{TotalBytesPerNS: 1.6, CriticalBytesPerNS: 0.8, FloorBytesPerNS: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			critCl, _ := sys.Client(noc.Coord{X: 0, Y: 0})
			if err := critCl.Register("crit", admission.Critical); err != nil {
				b.Fatal(err)
			}
			critSend(func(p *noc.Packet) error { return critCl.Submit("crit", p) })
			for i := 0; i < 5; i++ {
				i := i
				// On the critical flow's row: genuine link contention.
				cl, _ := sys.Client(noc.Coord{X: 1 + i%2, Y: 0})
				name := fmt.Sprintf("be%d", i)
				if err := cl.Register(name, admission.BestEffort); err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 2000; k++ {
					_ = cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 0}, Bytes: 64})
				}
			}
		} else {
			critNI, _ := mesh.NI(noc.Coord{X: 0, Y: 0})
			critSend(critNI.Send)
			for i := 0; i < 5; i++ {
				ni, _ := mesh.NI(noc.Coord{X: 1 + i%2, Y: 0})
				for k := 0; k < 2000; k++ {
					_ = ni.Send(&noc.Packet{Dst: noc.Coord{X: 3, Y: 0}, Bytes: 64})
				}
			}
		}
		eng.RunUntil(horizon)
		if len(lats) == 0 {
			return 0
		}
		sorted := append([]sim.Duration(nil), lats...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[int(0.95*float64(len(sorted)-1))].Nanoseconds()
	}
	printOnce("A7", func() {
		un := run(false, 100*sim.Microsecond)
		ad := run(true, 100*sim.Microsecond)
		fmt.Println("\n[ablation] admission control on/off (critical flow vs 5 bursty senders):")
		fmt.Printf("  unmanaged:          p95 %.1f ns\n", un)
		fmt.Printf("  admission overlay:  p95 %.1f ns (non-symmetric, crit guaranteed)\n", ad)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(true, 20*sim.Microsecond)
	}
}

// BenchmarkSweepScaling measures the parallel sweep harness on the
// socsim scenario matrix: the same spec list executed with 1, 2, 4,
// and 8 workers. Every run is hermetic (own platform, own engine) and
// results land in spec-order slots, so the aggregates are
// byte-identical across worker counts — the benchmark exists to show
// the wall clock is the only thing parallelism changes. On a machine
// with >= 8 cores the 8-worker case approaches linear scaling
// (sim-kernel work dominates; there is no shared state to contend
// on). Guarded by -short so CI's test pass stays fast.
func BenchmarkSweepScaling(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep scaling benchmark skipped with -short")
	}
	// 7 scenarios x 2 seeds = 14 independent runs per iteration.
	specs := sweep.ScenarioMatrix(6, sim.Millisecond, []uint64{100, 101})
	printOnce("SW", func() {
		measure := func(workers int) time.Duration {
			start := time.Now()
			res := sweep.Run(specs, workers, nil)
			for _, r := range res {
				if r.Failed() {
					b.Fatalf("sweep run failed: %s", r.Err)
				}
			}
			return time.Since(start)
		}
		t1 := measure(1)
		t8 := measure(8)
		fmt.Printf("\n[bench] sweep wall clock, %d runs (GOMAXPROCS=%d): workers=1 %v, workers=8 %v (%.1fx)\n",
			len(specs), runtime.GOMAXPROCS(0), t1.Round(time.Millisecond), t8.Round(time.Millisecond),
			float64(t1)/float64(t8))
		if runtime.GOMAXPROCS(0) < 8 {
			fmt.Println("        (speedup needs cores; on >=8-way hardware this approaches 8x)")
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := sweep.Run(specs, workers, nil)
				if len(res) != len(specs) {
					b.Fatalf("got %d results for %d specs", len(res), len(specs))
				}
			}
		})
	}
}

// BenchmarkKernelHotPath measures the event kernel through the full
// platform stack: one critical app plus two hogs driving L3, MemGuard,
// mesh, MPAM-less channel, and DRAM for a fixed virtual horizon. With
// the pooled kernel records and pooled per-access transactions the
// steady-state allocation count per simulated event is ~0 — run with
// -benchmem to see it. The pure kernel microbenchmark (and the
// comparison against the retired container/heap engine) lives in
// internal/sim; this one exists so regressions in the model hot paths
// (dram.Request, NoC packets, per-access closures) show up too.
func BenchmarkKernelHotPath(b *testing.B) {
	run := func(horizon sim.Duration) uint64 {
		p, err := core.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		critProf, err := trace.NewProfile(trace.ControlLoop, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		crit, err := p.AddApp(core.AppConfig{
			Name: "crit", Node: noc.Coord{X: 0, Y: 0}, Cluster: 0, Scheme: 1, Profile: critProf,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			prof, err := trace.NewProfile(trace.Infotainment, uint64(i+1)<<30, uint64(i)+5)
			if err != nil {
				b.Fatal(err)
			}
			h, err := p.AddApp(core.AppConfig{
				Name: fmt.Sprintf("hog%d", i), Node: noc.Coord{X: 1 + i, Y: 0}, Cluster: 0,
				Scheme: dsu.SchemeID(2 + i), Profile: prof,
			})
			if err != nil {
				b.Fatal(err)
			}
			h.Start()
		}
		crit.Start()
		p.RunFor(horizon)
		return p.Eng.Fired()
	}
	printOnce("KH", func() {
		start := time.Now()
		fired := run(2 * sim.Millisecond)
		wall := time.Since(start)
		fmt.Printf("\n[bench] platform hot path: %d events in %v wall (%.0f events/sec)\n",
			fired, wall.Round(time.Millisecond), float64(fired)/wall.Seconds())
	})
	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		fired = run(sim.Millisecond)
	}
	b.ReportMetric(float64(fired), "events/op")
}

// BenchmarkReadLatencyPercentile compares the telemetry histogram's
// O(buckets) quantile (what dram.MasterStats now uses) against the
// copy-and-sort it replaced, on the same 64Ki-sample latency stream.
func BenchmarkReadLatencyPercentile(b *testing.B) {
	const samples = 1 << 16
	const p95idx = (samples - 1) * 95 / 100
	rnd := sim.NewRand(11)
	lats := make([]sim.Duration, samples)
	h := telemetry.NewHistogram()
	for i := range lats {
		lats[i] = sim.NS(float64(20 + rnd.Intn(2000)))
		h.Record(int64(lats[i]))
	}
	printOnce("BP", func() {
		sorted := append([]sim.Duration(nil), lats...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		exact := sorted[p95idx]
		fmt.Printf("\n[bench] p95 of %d read latencies: histogram %v vs exact %v "+
			"(relative error bound %.3f)\n",
			samples, sim.Duration(h.Quantile(0.95)), exact, telemetry.MaxQuantileRelativeError)
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if h.Quantile(0.95) == 0 {
				b.Fatal("empty quantile")
			}
		}
	})
	b.Run("copy+sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := append([]sim.Duration(nil), lats...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			if s[p95idx] == 0 {
				b.Fatal("empty quantile")
			}
		}
	})
}
