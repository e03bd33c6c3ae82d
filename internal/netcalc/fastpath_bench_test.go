package netcalc_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/admission"
	"repro/internal/dram/wcd"
	"repro/internal/netcalc"
)

// This file benchmarks the analytic plane's two fast paths against
// the netcalc arithmetic they stand in for, and emits
// BENCH_netcalc.json: the memoized operator
// cache (canonical-curve interning + LRU) against uncached
// convolution, and the admission decider's closed-form bound against
// a netcalc.DelayBound evaluation of every member. The uncached
// baselines are kept in-tree so the speedup claim is measured, not
// guessed against git history. The JSON keeps its "cached"/"uncached"
// keys for both sections; for admission_churn, "cached" is the
// closed-form decider. See docs/PERFORMANCE.md.

// ---- operator workload ----

// benchCurvePairs returns a fixed pool of representative operand
// pairs: token-bucket arrivals against multi-segment staircase
// services (the shape the audit path composes). A small pool makes the
// cached benchmark measure the steady-state hit path.
func benchCurvePairs() [][2]netcalc.Curve {
	var pairs [][2]netcalc.Curve
	for i := 0; i < 8; i++ {
		alpha := netcalc.TokenBucket(float64(int(64)<<(i%4)), 0.1+0.05*float64(i))
		beta := netcalc.Convolve(
			netcalc.TDMAService(1.0+0.1*float64(i), 20, 100, 8),
			netcalc.RateLatency(0.5+0.1*float64(i), 120),
		)
		pairs = append(pairs, [2]netcalc.Curve{alpha, beta})
	}
	return pairs
}

func BenchmarkConvolve(b *testing.B) {
	pairs := benchCurvePairs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		netcalc.Convolve(p[0], p[1])
	}
}

// convexCurvePairs returns the operand pairs the runtime auditor
// convolves: two NoC rate-latency curves (a 16 B/ns link shared by
// 1-4 flows, 1-4 hops plus ejection at 1 ns each), then their
// composition with the
// WCD DRAM service curve scaled to 64 B requests. Every operand is
// convex, so Convolve takes the closed form.
func convexCurvePairs() [][2]netcalc.Curve {
	dram, err := wcd.ServiceCurve(wcd.DefaultParams(), 32)
	if err != nil {
		panic(err)
	}
	dram = netcalc.Scale(dram, 64)
	var pairs [][2]netcalc.Curve
	for i := 0; i < 4; i++ {
		mesh := netcalc.RateLatency(16/float64(1+i), float64(2+i))
		pairs = append(pairs,
			[2]netcalc.Curve{mesh, mesh},
			[2]netcalc.Curve{netcalc.Convolve(mesh, mesh), dram})
	}
	return pairs
}

// BenchmarkConvolveConvex times Convolve on the auditor's convex
// operand pairs (closed) against the general envelope construction on
// the same pairs (envelope), which is what Convolve ran on them before
// it recognised convex operands.
func BenchmarkConvolveConvex(b *testing.B) {
	pairs := convexCurvePairs()
	for _, k := range []struct {
		name string
		conv func(f, g netcalc.Curve) netcalc.Curve
	}{{"closed", netcalc.Convolve}, {"envelope", netcalc.ConvolveEnvelope}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				k.conv(p[0], p[1])
			}
		})
	}
}

func BenchmarkConvolveCached(b *testing.B) {
	pairs := benchCurvePairs()
	cache := netcalc.NewCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		cache.Convolve(p[0], p[1])
	}
}

// BenchmarkCacheDelayBoundThroughHit measures one audited app's
// registration once the cache is warm: the token bucket through the
// NoC, WCD DRAM and NoC tandem, every operand a value the cache has
// seen, so both convolutions and the delay bound hit the memo.
func BenchmarkCacheDelayBoundThroughHit(b *testing.B) {
	dramReq, err := wcd.ServiceCurve(wcd.DefaultParams(), 32)
	if err != nil {
		b.Fatal(err)
	}
	alpha := netcalc.TokenBucket(64, 0.64)
	noc := netcalc.RateLatency(16.0/64, 17)
	dram := netcalc.Scale(dramReq, 64)
	cache := netcalc.NewCache(0)
	want := cache.DelayBoundThrough(alpha, noc, dram, noc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := cache.DelayBoundThrough(alpha, noc, dram, noc); got != want {
			b.Fatalf("hit returned %v, want %v", got, want)
		}
	}
}

// ---- admission churn workload ----

const (
	benchChurnApps = 24
	// churnLatencyNS is the fixed latency of the churn world's
	// rate-latency service.
	churnLatencyNS = 120
)

// churnWorld builds the admission scenario: benchChurnApps contracted
// applications, every fourth critical, whose rates come from a
// non-symmetric policy over the current mode and whose service is a
// rate-latency server at that rate — the model the admission decider
// checks. Deadlines are loose so every decision walks the full active
// set.
func churnWorld() (admission.RatePolicy, []admission.Member) {
	policy := admission.NonSymmetric{TotalBytesPerNS: 2.4, CriticalBytesPerNS: 0.2, FloorBytesPerNS: 0.01}
	apps := make([]admission.Member, benchChurnApps)
	for i := range apps {
		apps[i] = admission.Member{
			Name:        fmt.Sprintf("app%d", i),
			Requirement: admission.Requirement{BurstBytes: float64(int(128) << (i % 3)), DeadlineNS: 1e9},
		}
		if i%4 == 0 {
			apps[i].Crit = admission.Critical
		}
	}
	return policy, apps
}

// checkFunc is one admission decision over a mode with its number of
// critical members; "" admits.
type checkFunc func(mode []admission.Member, critical int) string

// uncachedCheck is the reference decision through netcalc: every
// decision evaluates every active application's bound as the delay
// bound of its token bucket through the rate-latency server.
func uncachedCheck(policy admission.RatePolicy) checkFunc {
	return func(mode []admission.Member, critical int) string {
		critRate, beRate := policy.ClassRates(len(mode), critical)
		for _, m := range mode {
			rate := beRate
			if m.Crit == admission.Critical {
				rate = critRate
			}
			if rate <= 0 {
				return m.Name + " would receive no bandwidth"
			}
			alpha := netcalc.TokenBucket(m.BurstBytes, rate)
			d := netcalc.DelayBound(alpha, netcalc.RateLatency(rate, churnLatencyNS))
			if math.IsInf(d, 1) || d > m.DeadlineNS {
				return m.Name + " exceeds deadline"
			}
		}
		return ""
	}
}

// churnDecisions drives b.N admission decisions: each one toggles the
// membership of a rotating application (admit on odd visits, release
// on even) and re-validates the post-decision active set — the RM's
// per-activation call pattern under steady app churn.
func churnDecisions(b *testing.B, check checkFunc, apps []admission.Member) {
	active := append([]admission.Member(nil), apps...)
	out := make([]admission.Member, 0, len(apps))
	critical := 0
	for _, a := range apps {
		if a.Crit == admission.Critical {
			critical++
		}
	}
	for i := 0; i < b.N; i++ {
		victim := i % len(apps)
		if i/len(apps)%2 == 0 {
			// Release round: drop the victim.
			out = out[:0]
			for j, a := range active {
				if j != victim%len(active) {
					out = append(out, a)
				} else if a.Crit == admission.Critical {
					critical--
				}
			}
			active, out = out, active
		} else {
			// Admit round: bring it back.
			active = append(active, apps[victim])
			if apps[victim].Crit == admission.Critical {
				critical++
			}
		}
		if reason := check(active, critical); reason != "" {
			b.Fatalf("decision %d rejected: %s", i, reason)
		}
	}
}

func BenchmarkAdmissionChurn(b *testing.B) {
	policy, apps := churnWorld()
	check := admission.NewDecider(policy, churnLatencyNS).Check
	b.ReportAllocs()
	b.ResetTimer()
	churnDecisions(b, check, apps)
}

func BenchmarkAdmissionChurnUncached(b *testing.B) {
	policy, apps := churnWorld()
	check := uncachedCheck(policy)
	b.ReportAllocs()
	b.ResetTimer()
	churnDecisions(b, check, apps)
}

// ---- machine-readable emission (BENCH_netcalc.json) ----

var benchOut = flag.String("benchout", "", "write netcalc benchmark results as JSON to this file")

// TestEmitNetcalcBench measures the fast path against the uncached
// baselines and writes BENCH_netcalc.json when -benchout is given:
//
//	go test ./internal/netcalc/ -run TestEmitNetcalcBench -benchout BENCH_netcalc.json
//
// It asserts the closed-form decider's admission-churn decisions/sec
// (>=3x the netcalc reference, gated at 2x so shared-runner noise
// cannot flake CI) plus a cached-convolve floor, so CI fails on an
// analytic-plane perf regression even without inspecting numbers.
func TestEmitNetcalcBench(t *testing.T) {
	if testing.Short() && *benchOut == "" {
		t.Skip("short mode without -benchout")
	}
	churnNew := testing.Benchmark(BenchmarkAdmissionChurn)
	churnOld := testing.Benchmark(BenchmarkAdmissionChurnUncached)
	convNew := testing.Benchmark(BenchmarkConvolveCached)
	convOld := testing.Benchmark(BenchmarkConvolve)

	decPerSecNew := 1e9 / float64(churnNew.NsPerOp())
	decPerSecOld := 1e9 / float64(churnOld.NsPerOp())
	churnSpeedup := decPerSecNew / decPerSecOld
	convPerSecNew := 1e9 / float64(convNew.NsPerOp())
	convPerSecOld := 1e9 / float64(convOld.NsPerOp())
	convSpeedup := convPerSecNew / convPerSecOld

	t.Logf("churn closed form: %d ns/decision, %.0f decisions/sec, %d allocs/decision",
		churnNew.NsPerOp(), decPerSecNew, churnNew.AllocsPerOp())
	t.Logf("churn netcalc:     %d ns/decision, %.0f decisions/sec, %d allocs/decision",
		churnOld.NsPerOp(), decPerSecOld, churnOld.AllocsPerOp())
	t.Logf("churn speedup: %.2fx", churnSpeedup)
	t.Logf("convolve cached:   %d ns/op, %.0f ops/sec, %d allocs/op",
		convNew.NsPerOp(), convPerSecNew, convNew.AllocsPerOp())
	t.Logf("convolve uncached: %d ns/op, %.0f ops/sec, %d allocs/op",
		convOld.NsPerOp(), convPerSecOld, convOld.AllocsPerOp())
	t.Logf("convolve speedup: %.2fx", convSpeedup)

	// Target is >=3x (see BENCH_netcalc.json); the automated gates keep
	// a margin below the committed numbers so shared-runner scheduling
	// noise does not flake CI, while still catching real regressions.
	if churnSpeedup < 2.0 {
		t.Errorf("admission churn speedup %.2fx, want >= 3x over the netcalc reference (gate: 2x)", churnSpeedup)
	}
	if convSpeedup < 2.0 {
		t.Errorf("cached convolve speedup %.2fx, want >= 2x over uncached (gate: 2x)", convSpeedup)
	}

	if *benchOut == "" {
		return
	}
	out := map[string]interface{}{
		"benchmark":  "netcalc_fast_path",
		"churn_apps": benchChurnApps,
		"admission_churn": map[string]interface{}{
			"cached": map[string]float64{
				"ns_per_decision":     float64(churnNew.NsPerOp()),
				"decisions_per_sec":   decPerSecNew,
				"allocs_per_decision": float64(churnNew.AllocsPerOp()),
			},
			"uncached": map[string]float64{
				"ns_per_decision":     float64(churnOld.NsPerOp()),
				"decisions_per_sec":   decPerSecOld,
				"allocs_per_decision": float64(churnOld.AllocsPerOp()),
			},
			"speedup": churnSpeedup,
		},
		"convolve": map[string]interface{}{
			"cached": map[string]float64{
				"ns_per_op":     float64(convNew.NsPerOp()),
				"ops_per_sec":   convPerSecNew,
				"allocs_per_op": float64(convNew.AllocsPerOp()),
			},
			"uncached": map[string]float64{
				"ns_per_op":     float64(convOld.NsPerOp()),
				"ops_per_sec":   convPerSecOld,
				"allocs_per_op": float64(convOld.AllocsPerOp()),
			},
			"speedup": convSpeedup,
		},
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
