// Command sweep is the deterministic parallel experiment runner: it
// expands a configuration matrix (QoS mechanisms × hog counts ×
// workload classes × horizons × seeds, plus optional admission-overlay
// runs) into independent run specs, executes them across a bounded
// worker pool — each run on its own fresh platform and simulation
// engine — and emits per-configuration aggregates (latency
// percentiles across seeds, slowdown vs. the isolated baseline,
// admission rejection rates) as a table, JSON, and CSV.
//
// Usage:
//
//	sweep [-workers N] [-mechs none,dsu,memguard,shape,mpam,all]
//	      [-hogs 0,6] [-workloads infotainment] [-ms 4] [-seeds 100]
//	      [-admission-apps 8,12] [-admission-crit 2]
//	      [-json file.json] [-csv file.csv]
//	      [-audit] [-run-metrics-dir dir] [-store dir] [-listen addr]
//	      [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// "-" writes JSON/CSV to stdout. Output is byte-identical for any
// -workers value: runs are hermetic and aggregation follows the spec
// order, so parallelism never changes the result, only the wall
// clock. A run that panics becomes a failure record in the aggregates
// instead of killing the sweep.
//
// -audit arms the runtime predictability auditor in every contention
// run; per-configuration violation counts land in the table, JSON,
// and CSV. -run-metrics-dir writes each run's end-of-run metrics
// snapshot (OpenMetrics text) into the directory, one file per run,
// so individual sweep cells are debuggable after the fact. -store
// appends every run (including failures) to the cross-run results
// store in that directory — headline values, config fingerprint, and
// the full metrics snapshot, queryable afterwards with obsq — and
// evaluates the built-in SLOs over the stored history when the sweep
// finishes. -listen serves live progress while the sweep executes:
// /progress (JSON done/failed/violation counts), /healthz, /slo (with
// -store, the built-in SLOs evaluated over the stored history), and
// /debug/pprof for profiling a long sweep in flight. Each GET renders
// its answer then; nothing renders for an endpoint nobody reads. All
// of these are off by default and leave the aggregate bytes
// unchanged. -ms takes fractions (0.5 is 500 µs).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command; errors return through it so the deferred
// profile flush, store close and endpoint shutdown run on every path.
func run() error {
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	mechs := flag.String("mechs", "none,all", "comma-separated mechanism sets (none, dsu, memguard, shape, mpam, all, or +-joined combos)")
	hogs := flag.String("hogs", "0,6", "comma-separated aggressor counts (0 adds the isolated baseline)")
	workloads := flag.String("workloads", "infotainment", "comma-separated hog workload classes (control-loop, vision-pipeline, infotainment)")
	ms := flag.String("ms", "4", "comma-separated simulated horizons in milliseconds (fractions allowed, e.g. 0.5)")
	seeds := flag.String("seeds", "100", "comma-separated seeds; each configuration runs once per seed")
	admApps := flag.String("admission-apps", "", "comma-separated app counts for admission-overlay runs (empty = none)")
	admCrit := flag.Int("admission-crit", 2, "critical apps per admission-overlay run")
	jsonPath := flag.String("json", "", "write aggregate JSON to this file (\"-\" for stdout)")
	csvPath := flag.String("csv", "", "write aggregate CSV to this file (\"-\" for stdout)")
	auditOn := flag.Bool("audit", false, "arm the runtime predictability auditor in every contention run")
	runMetricsDir := flag.String("run-metrics-dir", "", "write each run's metrics snapshot (OpenMetrics text) into this directory")
	storeDir := flag.String("store", "", "append per-run records to the cross-run results store in this directory and evaluate SLOs over it")
	listen := flag.String("listen", "", "serve live /progress, /healthz and pprof on this address while the sweep runs (off by default)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	stopProfiles, err := telemetry.StartProfiles("sweep", *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	mx, err := buildMatrix(*mechs, *hogs, *workloads, *ms, *seeds, *admApps, *admCrit)
	if err != nil {
		return err
	}
	specs := mx.Expand()
	if len(specs) == 0 {
		return fmt.Errorf("empty configuration matrix")
	}
	if err := armSpecs(specs, *auditOn, *runMetricsDir); err != nil {
		return err
	}

	// The store recorder arms its metrics capture after armSpecs so
	// both per-run files and stored payloads can coexist.
	var store *obs.Store
	var recorder *sweep.Recorder
	if *storeDir != "" {
		var err error
		if store, err = obs.Open(*storeDir); err != nil {
			return fmt.Errorf("-store: %w", err)
		}
		defer store.Close()
		recorder = sweep.NewRecorder(store, specs)
	}

	var observe func(sweep.Result)
	if *listen != "" {
		prog := sweep.NewProgress(len(specs))
		observe = prog.Observe
		var slo func() (any, error)
		if store != nil {
			slo = func() (any, error) { return obs.EvaluateStore(store, obs.DefaultSLOs()) }
		}
		srv, err := audit.NewServer(*listen, nil, func() any { return prog.Snapshot() }, slo)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: live endpoint on http://%s (/progress /healthz /slo /debug/pprof)\n", srv.Addr())
	}

	fmt.Printf("sweep: %d runs (%d workers)\n", len(specs), effectiveWorkers(*workers, len(specs)))
	results := sweep.RunObserved(specs, *workers, nil, observe)
	summaries := sweep.Summarize(results)

	if recorder != nil {
		if err := recorder.Flush(results); err != nil {
			return err
		}
		statuses, err := obs.EvaluateStore(store, obs.DefaultSLOs())
		if err != nil {
			return fmt.Errorf("-store: evaluate SLOs: %w", err)
		}
		printSLOs(os.Stderr, statuses)
	}

	printTable(os.Stdout, summaries)
	if *jsonPath != "" {
		if err := telemetry.WriteOutput(*jsonPath, func(w io.Writer) error {
			return sweep.WriteJSON(w, summaries)
		}); err != nil {
			return fmt.Errorf("json %s: %w", *jsonPath, err)
		}
	}
	if *csvPath != "" {
		if err := telemetry.WriteOutput(*csvPath, func(w io.Writer) error {
			return sweep.WriteCSV(w, summaries)
		}); err != nil {
			return fmt.Errorf("csv %s: %w", *csvPath, err)
		}
	}
	for _, s := range summaries {
		if s.Failures > 0 {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d runs failed in %q: %s\n", s.Failures, s.Runs, s.Label, s.Failure)
		}
	}
	return nil
}

// armSpecs applies the per-run observability options onto the
// expanded specs: the auditor switch, and a unique per-run metrics
// snapshot path under dir (created if needed). Only contention runs
// carry a platform to instrument.
func armSpecs(specs []sweep.Spec, auditOn bool, dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("-run-metrics-dir: %w", err)
		}
	}
	for i := range specs {
		if specs[i].Kind != sweep.Contention {
			continue
		}
		specs[i].Platform.Audit = specs[i].Platform.Audit || auditOn
		if dir != "" {
			name := fmt.Sprintf("run%04d_%s_seed%d.om",
				i, sanitizeFilename(specs[i].Label), specs[i].Platform.Seed)
			specs[i].Platform.MetricsPath = filepath.Join(dir, name)
		}
	}
	return nil
}

// sanitizeFilename maps a spec label onto a safe file-name fragment.
func sanitizeFilename(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '+', r == '=':
			return r
		}
		return '_'
	}, s)
}

// buildMatrix parses the axis flags.
func buildMatrix(mechs, hogs, workloads, ms, seeds, admApps string, admCrit int) (sweep.Matrix, error) {
	var mx sweep.Matrix
	for _, m := range splitList(mechs) {
		set, err := sweep.ParseMechanismSet(m)
		if err != nil {
			return mx, err
		}
		mx.Mechanisms = append(mx.Mechanisms, set)
	}
	var err error
	if mx.Hogs, err = parseInts(hogs); err != nil {
		return mx, fmt.Errorf("-hogs: %w", err)
	}
	for _, w := range splitList(workloads) {
		cls, err := parseWorkload(w)
		if err != nil {
			return mx, err
		}
		mx.Workloads = append(mx.Workloads, cls)
	}
	for _, part := range splitList(ms) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return mx, fmt.Errorf("-ms: %w", err)
		}
		d := sim.Duration(math.Round(v * float64(sim.Millisecond)))
		if !(v > 0) || d <= 0 {
			return mx, fmt.Errorf("-ms: horizon %s must be positive", part)
		}
		mx.Durations = append(mx.Durations, d)
	}
	for _, s := range splitList(seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return mx, fmt.Errorf("-seeds: %w", err)
		}
		mx.Seeds = append(mx.Seeds, v)
	}
	if mx.AdmissionApps, err = parseInts(admApps); err != nil {
		return mx, fmt.Errorf("-admission-apps: %w", err)
	}
	mx.AdmissionCrit = admCrit
	return mx, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseWorkload(s string) (trace.WorkloadClass, error) {
	for _, cls := range []trace.WorkloadClass{trace.ControlLoop, trace.VisionPipeline, trace.Infotainment} {
		if cls.String() == s {
			return cls, nil
		}
	}
	return 0, fmt.Errorf("unknown workload class %q (want control-loop, vision-pipeline, infotainment)", s)
}

func effectiveWorkers(workers, specs int) int {
	if workers <= 0 {
		workers = maxProcs()
	}
	if workers > specs {
		workers = specs
	}
	return workers
}

func maxProcs() int {
	// Mirrors sweep.Run's default without importing runtime twice in
	// messages vs behaviour.
	return sweep.DefaultWorkers()
}

// printSLOs renders the stored-history SLO statuses.
func printSLOs(w io.Writer, statuses []obs.SLOStatus) {
	for _, s := range statuses {
		if s.Runs == 0 {
			continue // objective has no stored runs yet
		}
		fmt.Fprintf(w, "sweep: slo %-24s runs=%d attainment=%.1f%% burn=%.2f met=%v\n",
			s.SLO.Name, s.Runs, 100*s.Attainment, s.BurnRate, s.Met)
	}
}

// printTable renders the aggregate table.
func printTable(w io.Writer, summaries []sweep.ConfigSummary) {
	fmt.Fprintf(w, "%-40s %5s %5s %10s %10s %10s %9s %7s %5s %9s\n",
		"configuration", "runs", "fail", "mean(ns)", "p95(ns)", "max(ns)", "slowdown", "row-hit", "viol", "reject")
	for _, s := range summaries {
		if s.Kind == "admission" {
			fmt.Fprintf(w, "%-40s %5d %5d %10s %10s %10s %9s %7s %5s %8.1f%%\n",
				s.Label, s.Runs, s.Failures, "-", "-", "-", "-", "-", "-", 100*s.RejectionRate)
			continue
		}
		slow := "-"
		if s.SlowdownP95 > 0 {
			slow = fmt.Sprintf("%.2fx", s.SlowdownP95)
		}
		fmt.Fprintf(w, "%-40s %5d %5d %10.1f %10.1f %10.1f %9s %7.2f %5d %9s\n",
			s.Label, s.Runs, s.Failures, s.MeanNS, s.P95NS, s.MaxNS, slow, s.RowHitRate, s.Violations, "-")
	}
}
