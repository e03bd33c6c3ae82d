package rmserver

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

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
// The ratio against BenchmarkFleetDoBatched is the tracing-off
// overhead, gated < 3% via the `trace_off.speedup` metric the sentinel
// tracks in BENCH_rmserver.json.
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
	// Best-of-3 on the two sides of the overhead ratio: scheduler or
	// neighbor interference only ever slows a measurement, so the
	// fastest of three is the robust estimator, and the speedup ratio
	// stops jittering with whichever single run got preempted. The two
	// sides' runs alternate, so a burst of outside load (another
	// package's tests under `go test ./...`) lands on both sides alike
	// instead of on whichever side's three runs it happens to overlap.
	// Both sides are float T/N: at tens of ns per decision, the integer
	// NsPerOp would quantize the ratio in ~1% steps.
	nsPerOp := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	do := testing.Benchmark(BenchmarkFleetDoBatched)
	tracedOff := testing.Benchmark(BenchmarkFleetDoTracedOff)
	for i := 0; i < 2; i++ {
		if n := testing.Benchmark(BenchmarkFleetDoBatched); nsPerOp(n) < nsPerOp(do) {
			do = n
		}
		if n := testing.Benchmark(BenchmarkFleetDoTracedOff); nsPerOp(n) < nsPerOp(tracedOff) {
			tracedOff = n
		}
	}
	parse := testing.Benchmark(BenchmarkParseOpsText)

	decPerSec := 1e9 / nsPerOp(do)
	// One parse op decodes a whole batch.
	parsedOpsPerSec := 1e9 / float64(parse.NsPerOp()) * benchBatchOps
	tracedOffPerSec := 1e9 / nsPerOp(tracedOff)
	// Same-process ratio: decisions/sec with a sample-0 tracer attached
	// over decisions/sec without one. A cross-machine absolute floor
	// cannot gate a 3% budget, but this ratio can — both measurements
	// share the process, the core, and the thermal state. A ratio above
	// parity is measurement noise (a disabled tracer cannot speed up
	// decisions), so it is capped at 1.0: the committed baseline then
	// anchors at parity and the sentinel's 3% band is exactly the
	// overhead budget, instead of wobbling around whichever side of 1.0
	// the baseline machine happened to land on.
	traceOffSpeedup := min(tracedOffPerSec/decPerSec, 1.0)

	t.Logf("fleet.Do batched: %.1f ns/decision, %.0f decisions/sec, %d allocs/decision",
		nsPerOp(do), decPerSec, do.AllocsPerOp())
	t.Logf("compact parse:    %.0f ops/sec decoded (%d ns per %d-op batch)",
		parsedOpsPerSec, parse.NsPerOp(), benchBatchOps)
	t.Logf("trace off:        %.0f decisions/sec with sample-0 tracer (speedup %.4f)",
		tracedOffPerSec, traceOffSpeedup)

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
