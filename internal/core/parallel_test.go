package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The platform-level determinism contract of the parallel kernel:
// RunSpec.KernelPartitions must never change the simulated outcome.
// Every partition count produces the same RunResult and the same
// metrics snapshot, byte for byte — what `socsim -parallel N` prints
// and dumps, audit summary included, against the sequential engine.

// runWithPartitions executes one fixed contention scenario and returns
// the result plus the captured OpenMetrics snapshot.
func runWithPartitions(t *testing.T, parts int) (RunResult, []byte) {
	t.Helper()
	var snap []byte
	spec := RunSpec{
		Hogs: 3, HogClass: trace.Infotainment,
		DSU: true, MemGuard: true, MPAM: true,
		Duration: 100 * sim.Microsecond, Seed: 11,
		Audit:            true,
		KernelPartitions: parts,
		MetricsSink:      func(b []byte) { snap = b },
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatalf("run with %d kernel partitions: %v", parts, err)
	}
	return res, snap
}

// TestRunKernelPartitionsByteIdentity: results and metrics snapshots
// are byte-identical across kernel partition counts 0 (sequential
// engine) and 1/2/4/8 (Parallel kernel). The auditor is armed, so the
// snapshot carries the per-app audit families (observed, max, bound,
// headroom, per-stage latency) that socsim's audit summary prints.
func TestRunKernelPartitionsByteIdentity(t *testing.T) {
	want, wantSnap := runWithPartitions(t, 0)
	if want.Crit.Issued == 0 || want.AuditObserved == 0 || !bytes.Contains(wantSnap, []byte("audit_crit_")) {
		t.Fatal("degenerate sequential reference run")
	}
	for _, parts := range []int{1, 2, 4, 8} {
		got, snap := runWithPartitions(t, parts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("KernelPartitions=%d RunResult diverged from sequential:\ngot:  %+v\nwant: %+v", parts, got, want)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("KernelPartitions=%d metrics snapshot diverged from sequential (%d vs %d bytes)", parts, len(snap), len(wantSnap))
		}
	}
}

// TestPlatformKernelWiring pins how Config.Partitions assembles the
// kernel: the platform engine is the cut's home partition (the slab
// holding the memory node), the lookahead is the mesh FlitTime, and
// the barrier loop actually turns rounds.
func TestPlatformKernelWiring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Partitions = 4
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := p.Kernel()
	if par == nil {
		t.Fatal("Partitions=4 built no kernel")
	}
	if got := par.Partitions(); got != 4 {
		t.Fatalf("kernel has %d partitions, want 4", got)
	}
	if got, want := par.Lookahead(), cfg.Mesh.FlitTime; got != want {
		t.Errorf("lookahead %v, want FlitTime %v", got, want)
	}
	plan := p.Plan()
	// Memory node (3,3) on a 4-wide mesh cut into 4 column slabs lives
	// in the rightmost slab.
	if plan.Home != 3 {
		t.Errorf("home partition %d, want 3 (memory node's column slab)", plan.Home)
	}
	if p.Eng != par.Partition(plan.Home) {
		t.Error("platform engine is not the home partition")
	}
	if got := plan.Assign(noc.Coord{X: 0, Y: 2}); got != 0 {
		t.Errorf("column 0 assigned to partition %d, want 0", got)
	}

	fired := false
	p.Eng.At(100, func() { fired = true })
	p.RunFor(sim.Microsecond)
	if !fired {
		t.Error("home-partition event did not fire through the kernel run loop")
	}
	if par.Rounds() == 0 {
		t.Error("kernel turned no rounds")
	}
	for i := 0; i < 4; i++ {
		if now := par.Partition(i).Now(); now != sim.Time(sim.Microsecond) {
			t.Errorf("partition %d clock %v after RunFor, want %v", i, now, sim.Microsecond)
		}
	}
}

// TestPlanPartitionsClamps: more partitions than mesh columns clamp to
// one slab per column (no empty slabs), and a plain sequential config
// keeps Partitions 0 semantics.
func TestPlanPartitionsClamps(t *testing.T) {
	mesh := noc.DefaultConfig() // 4 wide
	pl := PlanPartitions(mesh, noc.Coord{X: 3, Y: 3}, 16)
	if pl.Partitions != mesh.Width {
		t.Errorf("planned %d partitions on a %d-wide mesh, want clamp to width", pl.Partitions, mesh.Width)
	}
	if pl.Lookahead != mesh.FlitTime {
		t.Errorf("lookahead %v, want FlitTime %v", pl.Lookahead, mesh.FlitTime)
	}
	cfg := DefaultConfig()
	cfg.Partitions = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Partitions accepted")
	}
	if (RunSpec{Duration: sim.Millisecond, KernelPartitions: -2}).Validate() == nil {
		t.Error("negative KernelPartitions accepted")
	}
}

// nonSquareMesh builds a WxH mesh config for plan tests; only Width
// matters to the column cut, Height exercises Y-independence.
func nonSquareMesh(w, h int) noc.Config {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = w, h
	return cfg
}

// TestPlanPartitionsNonSquare: the column cut on wide-and-short and
// narrow-and-tall meshes is balanced (slab widths differ by at most
// one column), surjective (no empty slabs), monotone in X, and
// entirely independent of Y.
func TestPlanPartitionsNonSquare(t *testing.T) {
	for _, tc := range []struct{ w, h, n int }{
		{8, 2, 4},  // wide, even split
		{2, 8, 2},  // tall, two 1-column slabs
		{7, 3, 3},  // width not divisible by n
		{5, 1, 4},  // single-row mesh
		{3, 9, 5},  // n > width: clamps to one slab per column
		{16, 4, 8}, // big-mesh aspect
	} {
		mesh := nonSquareMesh(tc.w, tc.h)
		pl := PlanPartitions(mesh, noc.Coord{X: tc.w - 1, Y: tc.h - 1}, tc.n)
		wantParts := tc.n
		if wantParts > tc.w {
			wantParts = tc.w
		}
		if pl.Partitions != wantParts {
			t.Errorf("%dx%d n=%d: planned %d partitions, want %d", tc.w, tc.h, tc.n, pl.Partitions, wantParts)
		}
		cols := make([]int, pl.Partitions) // columns per slab
		prev := 0
		for x := 0; x < tc.w; x++ {
			p := pl.Assign(noc.Coord{X: x, Y: 0})
			if p < 0 || p >= pl.Partitions {
				t.Fatalf("%dx%d n=%d: column %d assigned out-of-range partition %d", tc.w, tc.h, tc.n, x, p)
			}
			if p < prev {
				t.Errorf("%dx%d n=%d: assignment not monotone at column %d (%d after %d)", tc.w, tc.h, tc.n, x, p, prev)
			}
			prev = p
			cols[p]++
			for y := 1; y < tc.h; y++ {
				if q := pl.Assign(noc.Coord{X: x, Y: y}); q != p {
					t.Errorf("%dx%d n=%d: (%d,%d) in partition %d but (%d,0) in %d — cut depends on Y", tc.w, tc.h, tc.n, x, y, q, x, p)
				}
			}
		}
		minC, maxC := tc.w, 0
		for p, c := range cols {
			if c == 0 {
				t.Errorf("%dx%d n=%d: partition %d owns no columns", tc.w, tc.h, tc.n, p)
			}
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		if maxC-minC > 1 {
			t.Errorf("%dx%d n=%d: unbalanced slabs, column counts %v", tc.w, tc.h, tc.n, cols)
		}
	}
}

// TestPlanPartitionsEdgeMemoryColumns: the home partition tracks the
// memory node wherever its column sits — leftmost column, rightmost
// column, and interior — on square and non-square meshes alike.
func TestPlanPartitionsEdgeMemoryColumns(t *testing.T) {
	for _, tc := range []struct {
		w, h, n  int
		memX     int
		wantHome int
	}{
		{8, 2, 4, 0, 0},    // west edge -> first slab
		{8, 2, 4, 7, 3},    // east edge -> last slab
		{8, 2, 4, 3, 1},    // interior
		{7, 3, 3, 6, 2},    // east edge, uneven slabs ({0,1,2},{3,4},{5,6})
		{7, 3, 3, 0, 0},    // west edge, uneven slabs
		{5, 1, 5, 4, 4},    // one column per slab
		{16, 16, 8, 15, 7}, // big-mesh corner
	} {
		mesh := nonSquareMesh(tc.w, tc.h)
		for _, memY := range []int{0, tc.h - 1} { // corner rows both ways
			pl := PlanPartitions(mesh, noc.Coord{X: tc.memX, Y: memY}, tc.n)
			if pl.Home != tc.wantHome {
				t.Errorf("%dx%d n=%d mem=(%d,%d): home %d, want %d",
					tc.w, tc.h, tc.n, tc.memX, memY, pl.Home, tc.wantHome)
			}
			if got := pl.Assign(noc.Coord{X: tc.memX, Y: memY}); got != pl.Home {
				t.Errorf("%dx%d n=%d: memory node assigned %d but Home says %d", tc.w, tc.h, tc.n, got, pl.Home)
			}
		}
	}
}

// TestPlanPartitionsClusteredClampsAndAtomicity: the clustered planner
// clamps n to min(width, clusters), keeps every cluster inside one
// partition for every n, spreads clusters over all partitions with no
// empty slab, and degenerates to the plain column cut when clusters
// is zero.
func TestPlanPartitionsClusteredClampsAndAtomicity(t *testing.T) {
	mesh := nonSquareMesh(12, 3)
	mem := noc.Coord{X: 11, Y: 2}

	if pl := PlanPartitionsClustered(mesh, mem, 0, 4); pl.Partitions != 4 || pl.clusters != 0 {
		t.Errorf("clusters=0 did not fall back to plain cut: %+v", pl)
	}
	if pl := PlanPartitionsClustered(mesh, mem, 6, 9); pl.Partitions != 6 {
		t.Errorf("n=9 with 6 clusters planned %d partitions, want clamp to 6", pl.Partitions)
	}
	if pl := PlanPartitionsClustered(nonSquareMesh(2, 8), noc.Coord{X: 1, Y: 7}, 4, 4); pl.Partitions != 2 {
		t.Errorf("n=4 on a 2-wide mesh planned %d partitions, want clamp to width", pl.Partitions)
	}

	clusterOf := func(x, clusters, width int) int {
		k := x * clusters / width
		if k >= clusters {
			k = clusters - 1
		}
		return k
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6} {
		pl := PlanPartitionsClustered(mesh, mem, 6, n)
		if pl.Partitions > 6 || pl.Partitions > mesh.Width {
			t.Fatalf("n=%d: planned %d partitions", n, pl.Partitions)
		}
		owner := make(map[int]int)   // cluster -> partition
		filled := make(map[int]bool) // partitions with at least one cluster
		for x := 0; x < mesh.Width; x++ {
			k := clusterOf(x, 6, mesh.Width)
			p := pl.Assign(noc.Coord{X: x, Y: 1})
			if prev, ok := owner[k]; ok && prev != p {
				t.Errorf("n=%d: cluster %d straddles partitions %d and %d", n, k, prev, p)
			}
			owner[k] = p
			filled[p] = true
		}
		if len(filled) != pl.Partitions {
			t.Errorf("n=%d: only %d of %d partitions own a cluster", n, len(filled), pl.Partitions)
		}
		if pl.Home != pl.Assign(mem) {
			t.Errorf("n=%d: home %d != memory node's partition %d", n, pl.Home, pl.Assign(mem))
		}
	}
}
