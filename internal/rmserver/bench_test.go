package rmserver

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wtrace"
)

// The throughput acceptance criterion for the service plane is one
// million admission decisions per second aggregate on the batched
// path. These benchmarks measure it in-process (Fleet.Do with full
// batches, the same path /v1/batch drives after parsing) and via the
// compact wire parser, and TestEmitRMServerBench emits
// BENCH_rmserver.json for the CI gate. The automated floor is set at
// 250k decisions/sec — 4x under target — so a shared single-core CI
// runner cannot flake the job while a real order-of-magnitude
// regression still fails it; the measured number is what the obs
// store tracks.

const benchBatchOps = 8192

// benchOps builds one full batch of register+withdraw pairs over 64
// platforms — the workload cmd/rmload drives, minus HTTP.
func benchOps() []Op {
	ops := make([]Op, 0, benchBatchOps)
	for i := 0; len(ops) < benchBatchOps; i++ {
		plat := fmt.Sprintf("p%d", i%64)
		app := fmt.Sprintf("a%d", i)
		ops = append(ops,
			Op{Kind: OpRegister, Platform: plat, App: app, BurstBytes: 64, DeadlineNS: 1e6},
			Op{Kind: OpWithdraw, Platform: plat, App: app},
		)
	}
	return ops
}

func BenchmarkFleetDoBatched(b *testing.B) {
	f := New(Config{Shards: 4, QueueDepth: 64}, telemetry.NewRegistry())
	defer f.Drain()
	ops := benchOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ops) {
		f.Do(ops)
	}
}

// BenchmarkFleetDoTracedOff is the identical workload with a tracer
// attached but head sampling at 0 — the default service deployment.
// Its cost over BenchmarkFleetDoBatched is the tracing-off overhead,
// gated < 3% via the `trace_off.speedup` metric the sentinel tracks in
// BENCH_rmserver.json; TestEmitRMServerBench measures that ratio with
// both workloads interleaved in one loop (traceOffPaired).
func BenchmarkFleetDoTracedOff(b *testing.B) {
	reg := telemetry.NewRegistry()
	f := New(Config{Shards: 4, QueueDepth: 64}, reg)
	defer f.Drain()
	tr := wtrace.New(wtrace.Config{Sample: 0, Registry: reg, Seed: 1})
	ops := benchOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ops) {
		f.DoTraced(ops, tr.StartRequest(""))
	}
}

func BenchmarkParseOpsText(b *testing.B) {
	var buf []byte
	for i := 0; i < benchBatchOps/2; i++ {
		buf = append(buf, fmt.Sprintf("r p%d a%d b 64 1000000\nw p%d a%d\n", i%64, i, i%64, i)...)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseOpsText(newByteReader(buf), benchBatchOps); err != nil {
			b.Fatal(err)
		}
	}
}

type byteReader struct {
	b   []byte
	off int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

// traceOffPaired measures the sample-0 tracer's cost in one timed
// loop. Each round decides a block of pairedBlock batches on an
// untraced fleet and a block on a fleet with a sample-0 tracer attached
// (the two Benchmark* workloads above), in alternating order, and the
// time is summed per side. Outside load — another package's tests
// under `go test ./...`, whose bursts slow the 4-shard batch path on 2
// cores more than 2x — then lands on both sides alike instead of on
// whichever side's separate benchmark run it happened to overlap.
// Blocks rather than single batches keep each side's GC cycles mostly
// within its own block: with one batch per turn, idle time on one side
// (a stall before dispatch, say) is filled by mark work the other
// side's allocation started, and the stall hides.
//
// The loop runs for pairedMin, then on until the ratio's standard
// error is at most pairedSE or pairedMax has passed: load leaves the
// ratio's expected value alone but widens its spread, so a loaded run
// takes more rounds instead of gating on a noisier number. It returns
// the untraced over the traced time, that ratio's standard error, and
// the traced side's ns per decision.
func traceOffPaired() (ratio, se, tracedNS float64) {
	plain := New(Config{Shards: 4, QueueDepth: 64}, telemetry.NewRegistry())
	defer plain.Drain()
	reg := telemetry.NewRegistry()
	traced := New(Config{Shards: 4, QueueDepth: 64}, reg)
	defer traced.Drain()
	tr := wtrace.New(wtrace.Config{Sample: 0, Registry: reg, Seed: 1})
	ops := benchOps()
	plain.Do(ops) // warm both fleets' platforms and pools
	traced.DoTraced(ops, tr.StartRequest(""))

	var untracedBlocks, tracedBlocks []float64
	for start := time.Now(); ; {
		var blk [2]time.Duration
		for i := 0; i < 2; i++ {
			side := (len(tracedBlocks) + i) % 2
			t0 := time.Now()
			for j := 0; j < pairedBlock; j++ {
				if side == 0 {
					plain.Do(ops)
				} else {
					traced.DoTraced(ops, tr.StartRequest(""))
				}
			}
			blk[side] = time.Since(t0)
		}
		untracedBlocks = append(untracedBlocks, float64(blk[0]))
		tracedBlocks = append(tracedBlocks, float64(blk[1]))
		ratio, se = ratioOfSums(untracedBlocks, tracedBlocks)
		if el := time.Since(start); el >= pairedMax || el >= pairedMin && se <= pairedSE {
			break
		}
	}
	var tracedSum float64
	for _, b := range tracedBlocks {
		tracedSum += b
	}
	return ratio, se, tracedSum / float64(len(tracedBlocks)*pairedBlock*len(ops))
}

// ratioOfSums returns Σa/Σb over paired samples and its standard error
// (the ratio estimator's first-order, delta-method form).
func ratioOfSums(a, b []float64) (r, se float64) {
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	r = sa / sb
	n := float64(len(a))
	if n < 2 {
		return r, math.Inf(1)
	}
	var ss float64
	for i := range a {
		d := a[i] - r*b[i]
		ss += d * d
	}
	return r, math.Sqrt(ss/(n-1)/n) / (sb / n)
}

// The paired loop's shape: pairedBlock batches (~10 ms) per side per
// turn, at least pairedMin of rounds, then rounds until the ratio's
// standard error is at most pairedSE, for at most pairedMax.
const (
	pairedBlock = 8
	pairedMin   = 2 * time.Second
	pairedMax   = 10 * time.Second
	pairedSE    = 0.01
)

var benchOut = flag.String("benchout", "", "write rmserver benchmark results as JSON to this file")

// TestEmitRMServerBench measures the batched decision path and writes
// BENCH_rmserver.json when -benchout is given:
//
//	go test ./internal/rmserver/ -run TestEmitRMServerBench -benchout BENCH_rmserver.json
//
// It gates the decisions/sec floor so CI fails on a service-plane
// throughput regression without inspecting numbers.
func TestEmitRMServerBench(t *testing.T) {
	if testing.Short() && *benchOut == "" {
		t.Skip("short mode without -benchout")
	}
	// Float T/N: at tens of ns per decision, the integer NsPerOp would
	// quantize in ~1% steps.
	nsPerOp := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	do := testing.Benchmark(BenchmarkFleetDoBatched)
	parse := testing.Benchmark(BenchmarkParseOpsText)
	pairedRatio, ratioSE, tracedOffNS := traceOffPaired()

	decPerSec := 1e9 / nsPerOp(do)
	// One parse op decodes a whole batch.
	parsedOpsPerSec := 1e9 / float64(parse.NsPerOp()) * benchBatchOps
	tracedOffPerSec := 1e9 / tracedOffNS
	// Same-process ratio: decisions/sec with a sample-0 tracer attached
	// over decisions/sec without one, from one paired loop (see
	// traceOffPaired). A cross-machine absolute floor cannot gate a 3%
	// budget, but this ratio can — both sides share the process, the
	// core, the thermal state and, block by block, the outside load. A
	// ratio above
	// parity is measurement noise (a disabled tracer cannot speed up
	// decisions), so it is capped at 1.0: the committed baseline then
	// anchors at parity and the sentinel's 3% band is exactly the
	// overhead budget, instead of wobbling around whichever side of 1.0
	// the baseline machine happened to land on.
	traceOffSpeedup := min(pairedRatio, 1.0)

	t.Logf("fleet.Do batched: %.1f ns/decision, %.0f decisions/sec, %d allocs/decision",
		nsPerOp(do), decPerSec, do.AllocsPerOp())
	t.Logf("compact parse:    %.0f ops/sec decoded (%d ns per %d-op batch)",
		parsedOpsPerSec, parse.NsPerOp(), benchBatchOps)
	t.Logf("trace off:        %.0f decisions/sec with sample-0 tracer (paired ratio %.4f ± %.4f, speedup %.4f)",
		tracedOffPerSec, pairedRatio, ratioSE, traceOffSpeedup)

	// The sample-0 tracer must cost < 3% of batched throughput. 5% here
	// absorbs same-process measurement noise; the sentinel gates the
	// committed trajectory at 3%.
	if traceOffSpeedup < 0.95 {
		t.Errorf("sample-0 tracing costs %.1f%% of batched throughput, budget 3%%",
			(1-traceOffSpeedup)*100)
	}

	// Target: >= 1e6 decisions/sec on the batched path (see the
	// committed BENCH_rmserver.json for measured numbers). CI floor
	// sits 4x under target to absorb shared-runner noise.
	if decPerSec < 250_000 {
		t.Errorf("batched path at %.0f decisions/sec, want >= 1e6 (CI floor 2.5e5)", decPerSec)
	}
	if parsedOpsPerSec < 250_000 {
		t.Errorf("compact parse at %.0f ops/sec, floor 2.5e5", parsedOpsPerSec)
	}

	if *benchOut == "" {
		return
	}
	out := map[string]interface{}{
		"benchmark": "rmserver_service_plane",
		"batch_ops": benchBatchOps,
		"fleet_do_batched": map[string]float64{
			"ns_per_decision":     nsPerOp(do),
			"decisions_per_sec":   decPerSec,
			"allocs_per_decision": float64(do.AllocsPerOp()),
		},
		"compact_parse": map[string]float64{
			"ns_per_batch":     float64(parse.NsPerOp()),
			"ops_per_sec":      parsedOpsPerSec,
			"mb_per_sec":       float64(parse.Bytes) / float64(parse.NsPerOp()) * 1e3,
			"allocs_per_batch": float64(parse.AllocsPerOp()),
		},
		"trace_off": map[string]float64{
			"decisions_per_sec": tracedOffPerSec,
			"speedup":           traceOffSpeedup,
		},
		"target_decisions_per_sec":   1e6,
		"ci_floor_decisions_per_sec": 250_000.0,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
