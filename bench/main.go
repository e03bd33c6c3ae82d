// Command bench is the repository benchmark. It runs one named
// workload through the public entry points of the SoC simulator
// (core.BuildPlatform and the Platform run loop), the sweep harness
// (sweep.RunObserved), and the real cmd/rmd daemon over loopback HTTP;
// times those calls itself; checks every output; and prints each
// metric by name and unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it through bench/run.sh, which builds the benchmark and cmd/rmd
// from source first:
//
//	bash bench/run.sh --workload legacy-contended --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh [--reps 3] [--seconds 10] [--trace 1]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports the per-layer metrics, attributing sampled
// host CPU to the repository's modules from outside the program.
// Without --workload every workload runs --reps times, each repetition
// in a fresh process, and a table of medians and quartiles is printed.
// bench/README.md defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// params are one run's settings.
type params struct {
	seed    uint64
	seconds float64 // measured wall time
	trace   bool
	// span overrides every sim workload's simulated time per run (the
	// smoke test shortens it); 0 keeps the workload's own.
	span sim.Duration
	rmd  string // the rmd binary
	tmp  string // directory for profiles
}

// measured returns the measured wall time as a duration.
func (p params) measured() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// outcome is what a workload reports: op counts and metric values.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// workload is one named set of inputs the benchmark runs.
type workload interface {
	name() string
	run(ctx context.Context, p params) (*outcome, error)
}

var workloads = []workload{
	legacyContended, legacyProtected, bigmesh, bigmeshP2,
	sweepMatrix{},
	rmdBatch, rmdStanding, rmdSmall,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
// throughput and latency_ms are per-layer instead: on the shared
// reference host, two sets of ten runs of the same code disagreed on
// them by up to 36%, beyond any bound the benchmark may set
// (README.md, "Measured baseline").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload.
// A metric of a layer the workload does not run reads 0; none of those
// is a host time.
var perLayer = append(layerDefs(), []metricDef{
	{"throughput", "1/s"},
	{"latency_ms", "ms"},
	{"trace.cpu_ms_per_op", "ms"},
	{"trace.closure", "ratio"},
	{"trace.overhead", "ratio"},
	{"latency_tail_ms", "ms"},
	{"audit.setup_pct", "%"},
	{"telemetry.snapshot_pct", "%"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.rounds", "count"},
	{"sweep.busy_ratio", "ratio"},
	{"noc.flit_hops", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"memguard.overhead", "sim_ns"},
	{"mpam.utilization", "ratio"},
	{"audit.observed", "count"},
	{"audit.violations", "count"},
	{"netcalc.cache_hits", "count"},
	{"netcalc.cache_misses", "count"},
	{"crit.p95", "sim_ns"},
	{"crit.max", "sim_ns"},
	{"rmserver.parse_pct", "%"},
	{"rmserver.queue_wait_pct", "%"},
	{"rmserver.decision_pct", "%"},
	{"rmserver.encode_pct", "%"},
	{"http.transport_pct", "%"},
	{"rmserver.decision_rate", "1/s"},
	{"rmserver.reject_ratio", "ratio"},
	{"rmserver.queue_depth_peak", "count"},
	{"rmserver.throttled", "count"},
	{"loadgen.late_ratio", "ratio"},
}...)

func layerDefs() []metricDef {
	defs := make([]metricDef, len(layers))
	for i, l := range layers {
		defs[i] = metricDef{l + ".cpu_pct", "%"}
	}
	return defs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (empty: every workload, -reps times each)")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 10, "measured wall time per run, seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced repetition and reports the per-layer metrics")
		reps    = flag.Int("reps", 3, "repetitions per workload when -workload is empty")
		rmdBin  = flag.String("rmd", ".bench_build/rmd", "the rmd binary")
		tmp     = flag.String("tmp", os.TempDir(), "directory for CPU profiles")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Println("# host", hostStamp())
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, rmd: *rmdBin, tmp: *tmp}
	if *name == "" {
		return runAll(ctx, p, *reps)
	}
	for _, w := range workloads {
		if w.name() == *name {
			return runOne(ctx, w, p)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
	return 2
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name()
	}
	return names
}

// runOne runs a workload and prints its metrics, then the result line,
// which holds the end-to-end metrics, or with --trace 1 the per-layer
// ones. An untraced run also prints, outside the result line, the
// per-layer metrics it measured. A run with a failed op prints the
// result with correct=false and exits 1; a run that could not measure
// at all prints no result.
func runOne(ctx context.Context, w workload, p params) int {
	out, err := w.run(ctx, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name(), err)
		return 1
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !p.trace && out.failed == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s reported no %s\n", w.name(), d.name)
			return 1
		}
		fmt.Printf("%-28s %16.6g %s\n", d.name, v, d.unit)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			res.Correct = false // only a run with failed requests reaches +Inf
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if !p.trace {
		for _, d := range perLayer {
			if v, ok := out.values[d.name]; ok {
				fmt.Printf("# %-26s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	fmt.Printf("%-28s %16d\n%-28s %16d\n", "ops", out.attempted, "ops_failed", out.failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostStamp names what a result was measured on.
func hostStamp() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	stamp, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	})
	return string(stamp)
}

// runAll runs every workload reps times, each repetition in a fresh
// child process, and prints each metric's median and quartiles.
func runAll(ctx context.Context, p params, reps int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	code := 0
	fmt.Printf("%-18s %-28s %14s %14s %14s  %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, w := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		ops, failed := 0, 0
		for r := 0; r < reps; r++ {
			args := []string{"-workload", w.name(), "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds),
				"-trace", trace, "-rmd", p.rmd, "-tmp", p.tmp}
			res, err := runChild(ctx, self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s repetition %d: %v\n", w.name(), r+1, err)
				code = 1
				continue
			}
			ops += res.Attempted
			failed += res.Failed
			if !res.Correct {
				code = 1
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			q1, q2, q3 := quartiles(values[k])
			fmt.Printf("%-18s %-28s %14.6g %14.6g %14.6g  %s\n", w.name(), k, q2, q1, q3, units[k])
		}
		fmt.Printf("%-18s %-28s %14d\n%-18s %-28s %14d\n", w.name(), "ops", ops, w.name(), "ops_failed", failed)
	}
	return code
}

// runChild runs one repetition and parses its result line.
func runChild(ctx context.Context, self string, args []string) (result, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return res, errors.Join(err, fmt.Errorf("no result line: %w", jerr))
	}
	// An untraced run prints its per-layer values as "# name value unit".
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" {
			continue
		}
		if v, perr := strconv.ParseFloat(f[2], 64); perr == nil {
			res.Metrics[f[1]] = metricValue{Value: v, Unit: f[3]}
		}
	}
	return res, nil
}
