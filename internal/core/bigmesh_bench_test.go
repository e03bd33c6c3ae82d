package core

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

var bigMeshBenchOut = flag.String("benchout", "", "merge the big-mesh scaling series into this BENCH JSON file")

// measureBigMesh runs the big-mesh scenario once at the given kernel
// partition count and returns the executed-event throughput. Platform
// assembly is excluded from the timed region; the event count comes
// from the engines themselves (every partition's Fired total), so the
// figure is events actually dispatched, not a workload estimate.
func measureBigMesh(t *testing.T, partitions int, dur sim.Duration) (eventsPerSec float64, events uint64) {
	t.Helper()
	spec := BigMeshSpec(partitions)
	spec.Duration = dur
	p, _, err := BuildPlatform(spec)
	if err != nil {
		t.Fatalf("partitions=%d: %v", partitions, err)
	}
	p.StartApps()
	start := time.Now()
	p.RunFor(dur)
	wall := time.Since(start)
	if par := p.Kernel(); par != nil {
		events = par.Fired()
	} else {
		events = p.Eng.Fired()
	}
	if events == 0 {
		t.Fatalf("partitions=%d: no events fired", partitions)
	}
	return float64(events) / wall.Seconds(), events
}

// TestEmitBigMeshBench measures the clustered platform's scaling
// series — the big-mesh scenario (16x16 mesh, 8 clusters, 8 channels,
// 512 apps) run sequentially and at 1/2/4/8 kernel partitions — and
// merges it into the bench JSON when -benchout is given:
//
//	go test ./internal/core/ -run TestEmitBigMeshBench -benchout "$PWD/BENCH_kernel.json"
//
// The file is read-modify-written so the kernel-dispatch numbers
// TestEmitBench (internal/sim) emitted stay in place; the series lands
// under parallel.bigmesh, where obsq flattens it to
// parallel.bigmesh.events_per_sec_pN (p0 = the sequential engine).
// Each point's speedup is its events/sec over the same run's p0
// events/sec (parallel.bigmesh.speedup_pN): a same-process ratio, so
// it compares across machines where absolute events/sec does not.
//
// The scaling floors arm only where cores exist to scale onto,
// mirroring TestEmitBench: >=1.5x at 4 partitions under GOMAXPROCS>=4,
// and the acceptance target — >=3x events/sec at 8 partitions over
// sequential — under GOMAXPROCS>=8. Emitted numbers are honest either
// way, with gomaxprocs stamped on every point.
func TestEmitBigMeshBench(t *testing.T) {
	if testing.Short() && *bigMeshBenchOut == "" {
		t.Skip("short mode without -benchout")
	}
	const dur = 25 * sim.Microsecond
	gomaxprocs := runtime.GOMAXPROCS(0)

	type point struct {
		Partitions   int     `json:"partitions"`
		EventsPerSec float64 `json:"events_per_sec"`
		Events       uint64  `json:"events"`
		Speedup      float64 `json:"speedup"`
		Gomaxprocs   int     `json:"gomaxprocs"`
	}
	var series []point
	perSec := map[int]float64{}
	for _, parts := range []int{0, 1, 2, 4, 8} {
		// Best of two: a single wall-clock sample on a shared runner is
		// noise-bound, and the faster of two is the honest capability.
		best, bestEvents := measureBigMesh(t, parts, dur)
		if again, ev := measureBigMesh(t, parts, dur); again > best {
			best, bestEvents = again, ev
		}
		perSec[parts] = best
		series = append(series, point{Partitions: parts, EventsPerSec: best, Events: bestEvents,
			Speedup: best / perSec[0], Gomaxprocs: gomaxprocs})
		t.Logf("bigmesh p%d: %.0f events/sec (%d events over %v sim)", parts, best, bestEvents, dur)
	}

	if gomaxprocs >= 4 {
		if scale := perSec[4] / perSec[0]; scale < 1.5 {
			t.Errorf("big-mesh scaling %.2fx at 4 partitions (GOMAXPROCS=%d), want >= 1.5x", scale, gomaxprocs)
		}
	}
	if gomaxprocs >= 8 {
		if scale := perSec[8] / perSec[0]; scale < 3.0 {
			t.Errorf("big-mesh scaling %.2fx at 8 partitions (GOMAXPROCS=%d), want >= 3x over sequential", scale, gomaxprocs)
		}
	} else {
		t.Logf("GOMAXPROCS=%d < 8: 3x-at-8-partitions floor not enforced on this host (armed where GOMAXPROCS >= 8)", gomaxprocs)
	}

	if *bigMeshBenchOut == "" {
		return
	}
	doc := map[string]interface{}{}
	if data, err := os.ReadFile(*bigMeshBenchOut); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("-benchout %s exists but is not JSON: %v", *bigMeshBenchOut, err)
		}
	}
	par, _ := doc["parallel"].(map[string]interface{})
	if par == nil {
		par = map[string]interface{}{}
		doc["parallel"] = par
	}
	par["bigmesh"] = series
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*bigMeshBenchOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
