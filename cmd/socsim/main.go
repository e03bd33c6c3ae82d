// Command socsim runs mixed-criticality contention scenarios on the
// vehicle-integration-platform model: a critical control loop
// co-located with best-effort memory hogs, with the paper's QoS
// mechanisms individually switchable. It prints the critical
// application's read-latency profile per configuration — the X1
// experiment from DESIGN.md as a standalone tool.
//
// Usage:
//
//	socsim [-hogs 6] [-ms 4] [-seed 100] [-dsu] [-memguard] [-shape]
//	       [-mpam] [-all] [-workers N] [-parallel N]
//	       [-mesh WxH] [-clusters N] [-channels N] [-apps-per-tile N]
//	       [-metrics file.om] [-trace file.json]
//	       [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -all runs the full scenario matrix through the internal/sweep
// harness, sharded over -workers parallel workers (default
// GOMAXPROCS); the printed table is byte-identical for any worker
// count. For bigger matrices — more axes, seed lists, JSON/CSV
// aggregates — use cmd/sweep directly.
//
// -parallel N runs the single-scenario event kernel with N
// conservative-lookahead partitions (lookahead = the mesh FlitTime).
// Output — stdout, metrics, traces — is byte-identical to the
// sequential engine for every N; see docs/PERFORMANCE.md ("Parallel
// kernel") for the protocol and for why -all rejects it (the sweep
// parallelizes across scenarios instead). N is clamped to the mesh
// width (and, on a clustered platform, the cluster count); the clamp
// and the effective partition count are reported on stderr so stdout
// stays byte-identical across partition counts.
//
// -mesh WxH, -clusters, -channels and -apps-per-tile grow the platform
// into the clustered scale-out shape (per-cluster L2/L3 and MemGuard,
// multi-channel DRAM with per-cluster home channels; see
// docs/PERFORMANCE.md "Clustered platforms"). Any one of them selects
// the scaled scenario — unset knobs take the scaled defaults (16x16
// mesh, min(8,width) clusters, one channel per cluster, 1 app per
// tile) and -hogs is ignored: every tile slot beyond the critical
// loop's carries a hog. `socsim -mesh 16x16 -clusters 8 -channels 8
// -apps-per-tile 2 -parallel 8` runs 512 apps across 256 tiles on 8
// kernel partitions.
//
// -metrics dumps the unified telemetry registry (counters, gauges,
// latency histograms) as OpenMetrics text, the encoding /metrics and
// the results store use; -trace records a Chrome trace_event timeline
// (load it in Perfetto or chrome://tracing) with per-bank DRAM service
// spans, per-flow NoC delivery spans, and MemGuard stall/depletion
// events. "-" writes either to stdout. Both are
// deterministic: identical invocations produce byte-identical files.
//
// -cpuprofile and -memprofile record pprof profiles of the simulation
// process (inspect with go tool pprof); see docs/PERFORMANCE.md.
//
// -audit arms the runtime predictability auditor: each app's analytic
// NC delay bound is captured at registration and every completed
// transaction is checked against it online, with violations streamed
// to stderr as they happen and summarized after the run. -listen
// starts the live export endpoint (/metrics in OpenMetrics text,
// /healthz, /progress, /debug/pprof/*) for scraping the run in
// flight; -linger keeps it serving after the run until SIGINT, so
// external scrapers (or CI's process smoke) can probe a finished run.
// -store appends the run's record — headline latencies, audit
// conformance, config fingerprint, and the full OpenMetrics snapshot
// — to the cross-run results store in that directory, where obsq can
// query it and the regression sentinel can judge later runs against
// it. See docs/OBSERVABILITY.md ("Runtime auditing" and "Cross-run
// store, SLOs, and regression sentinel").
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "socsim: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command with its arguments and output streams
// passed in; errors return through it so the deferred profile flush
// runs on every path.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("socsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	hogs := fs.Int("hogs", 6, "number of best-effort aggressor apps")
	msec := fs.Float64("ms", 4, "simulated milliseconds per scenario (fractions allowed, e.g. 0.05)")
	seed := fs.Uint64("seed", 100, "seed for the hogs' random address streams")
	useDSU := fs.Bool("dsu", false, "partition the L3 with a DSU CLUSTERPARTCR")
	useMG := fs.Bool("memguard", false, "give each hog a MemGuard budget")
	useShape := fs.Bool("shape", false, "install NI token-bucket shapers on hog nodes")
	useMPAM := fs.Bool("mpam", false, "regulate the memory channel with MPAM min/max bandwidth")
	all := fs.Bool("all", false, "run the full scenario matrix")
	workers := fs.Int("workers", 0, "parallel workers for -all (0 = GOMAXPROCS)")
	parallelN := fs.Int("parallel", 0, "run the event kernel with N conservative-lookahead partitions (output is byte-identical to sequential for every N; 0 = sequential engine)")
	meshFlag := fs.String("mesh", "", "scaled platform mesh as WxH (e.g. 16x16) or W for square; selects the clustered scenario")
	clustersFlag := fs.Int("clusters", 0, "scaled platform cluster count (0 = min(8, mesh width); selects the clustered scenario)")
	channelsFlag := fs.Int("channels", 0, "scaled platform DRAM channel count (0 = one per cluster; selects the clustered scenario)")
	appsPerTile := fs.Int("apps-per-tile", 0, "apps on every mesh tile in the scaled scenario (0 = 1; selects the clustered scenario)")
	metricsPath := fs.String("metrics", "", "write telemetry metrics as OpenMetrics text to this file (\"-\" for stdout)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON timeline to this file (\"-\" for stdout)")
	auditOn := fs.Bool("audit", false, "arm the runtime predictability auditor (online NC bound conformance + contention attribution)")
	storeDir := fs.String("store", "", "append this run's record to the cross-run results store in this directory")
	listen := fs.String("listen", "", "serve live OpenMetrics /metrics, /healthz, /progress and pprof on this address (e.g. :9091; off by default)")
	linger := fs.Bool("linger", false, "with -listen, keep serving after the run until SIGINT/SIGTERM")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	fs.Parse(args) // ExitOnError: exits 2 on a bad flag, 0 on -h

	stopProfiles, err := telemetry.StartProfiles("socsim", *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	meshW, meshH, err := parseMesh(*meshFlag)
	if err != nil {
		return err
	}
	scaled := meshW != 0 || *clustersFlag != 0 || *channelsFlag != 0 || *appsPerTile != 0

	if *all && (*metricsPath != "" || *tracePath != "" || *auditOn || *listen != "" || *storeDir != "") {
		return fmt.Errorf("-metrics/-trace/-audit/-listen/-store apply to a single scenario; drop -all (cmd/sweep has the matrix equivalents)")
	}
	if *all && scaled {
		return fmt.Errorf("-mesh/-clusters/-channels/-apps-per-tile configure a single scaled scenario; drop -all")
	}
	if *parallelN < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallelN)
	}
	if *all && *parallelN > 0 {
		// The sweep already parallelizes at run granularity (one whole
		// scenario per worker); kernel partitions inside each run would
		// oversubscribe the cores for no wall-clock gain.
		return fmt.Errorf("-parallel applies to a single scenario; -all parallelizes across scenarios via -workers instead")
	}

	horizon := sim.Duration(math.Round(*msec * float64(sim.Millisecond)))
	if *all {
		specs := sweep.ScenarioMatrix(*hogs, horizon, []uint64{*seed})
		results := sweep.Run(specs, *workers, nil)
		fmt.Fprintln(stdout, "scenario                         mean(ns)   p95(ns)    max(ns)   DRAM row-hit")
		for _, r := range results {
			if r.Failed() {
				fmt.Fprintf(stdout, "%-32s FAILED: %s\n", r.Spec.Label, r.Err)
				continue
			}
			fmt.Fprintf(stdout, "%-32s %-10.1f %-10.1f %-9.1f %.2f\n", r.Spec.Label,
				r.Crit.MeanReadLatency.Nanoseconds(), r.Crit.P95ReadLatency.Nanoseconds(),
				r.Crit.MaxReadLatency.Nanoseconds(), r.RowHitRate)
		}
		return nil
	}

	spec := core.RunSpec{
		Hogs: *hogs, DSU: *useDSU, MemGuard: *useMG, Shape: *useShape, MPAM: *useMPAM,
		HogClass: trace.Infotainment, Duration: horizon, Seed: *seed,
		KernelPartitions: *parallelN,
		MeshWidth:        meshW, MeshHeight: meshH,
		Clusters: *clustersFlag, Channels: *channelsFlag, AppsPerTile: *appsPerTile,
		Telemetry: *metricsPath != "" || *tracePath != "" || *listen != "" || *storeDir != "",
		Trace:     *tracePath != "",
	}
	p, crit, err := core.BuildPlatform(spec)
	if err != nil {
		return err
	}
	if *parallelN > 0 {
		// The effective count goes to stderr: stdout must stay
		// byte-identical across -parallel values (the determinism
		// contract CI diffs).
		eff := p.Plan().Partitions
		if eff != *parallelN {
			fmt.Fprintf(stderr, "socsim: -parallel %d clamped to %d partitions (mesh is %d columns wide, %d clusters)\n",
				*parallelN, eff, p.MeshConfig().Width, p.ClusterCount())
		}
		fmt.Fprintf(stderr, "socsim: event kernel running %d partitions, lookahead %v\n", eff, p.Plan().Lookahead)
	}

	// The auditor is enabled here rather than via spec.Audit so the
	// violation stream reaches stderr the moment each event fires.
	var aud *audit.Auditor
	if *auditOn {
		const maxPrinted = 20
		printed := 0
		aud, err = p.EnableAudit(core.AuditOptions{OnViolation: func(v audit.Violation) {
			if printed < maxPrinted {
				fmt.Fprintf(stderr, "socsim: %s\n", v)
			} else if printed == maxPrinted {
				fmt.Fprintf(stderr, "socsim: further violations suppressed (summary at end)\n")
			}
			printed++
		}})
		if err != nil {
			return err
		}
	}

	var srv *audit.Server
	if *listen != "" {
		srv, err = audit.NewServer(*listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "socsim: live endpoint on http://%s (/metrics /healthz /progress /debug/pprof)\n", srv.Addr())
	}

	p.StartApps()
	runScenario(p, spec.Duration, srv, stderr)

	if suite := p.Telemetry(); suite != nil {
		p.SnapshotMetrics()
		if srv != nil {
			publishLive(p, spec.Duration, srv, stderr)
		}
		if err := suite.DumpFiles(*metricsPath, *tracePath); err != nil {
			return err
		}
	}
	st := crit.Stats()
	ms := strconv.FormatFloat(*msec, 'f', -1, 64)
	if scaled {
		// The platform shape replaces the hog count in the header: the
		// scaled scenario derives its population from the mesh. Only
		// facts invariant across -parallel values may appear here.
		mc := p.MeshConfig()
		fmt.Fprintf(stdout, "critical app read latency over %sms on a %dx%d mesh (%d clusters, %d channels, %d apps; dsu=%v memguard=%v shape=%v mpam=%v):\n",
			ms, mc.Width, mc.Height, p.ClusterCount(), p.Channels(), len(p.Apps()),
			*useDSU, *useMG, *useShape, *useMPAM)
	} else {
		fmt.Fprintf(stdout, "critical app read latency over %sms with %d hogs (dsu=%v memguard=%v shape=%v mpam=%v):\n",
			ms, *hogs, *useDSU, *useMG, *useShape, *useMPAM)
	}
	fmt.Fprintf(stdout, "  accesses  %d (hits %d, misses %d)\n", st.Issued, st.L3Hits, st.L3Misses)
	fmt.Fprintf(stdout, "  mean      %.1f ns\n", st.MeanReadLatency.Nanoseconds())
	fmt.Fprintf(stdout, "  p95       %.1f ns\n", st.P95ReadLatency.Nanoseconds())
	fmt.Fprintf(stdout, "  max       %.1f ns\n", st.MaxReadLatency.Nanoseconds())
	fmt.Fprintf(stdout, "  DRAM row-hit rate %.2f\n", p.RowHitRate())
	if aud != nil {
		printAuditSummary(stdout, aud)
	}

	if *storeDir != "" {
		if err := recordRun(stderr, *storeDir, spec, *auditOn, p, st); err != nil {
			return err
		}
	}

	if srv != nil {
		if *linger {
			fmt.Fprintf(stderr, "socsim: run complete; serving until SIGINT\n")
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
			<-sigc
		}
		if err := srv.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runScenario advances the platform to the horizon. Without a live
// endpoint it is one RunFor; with one, the run is chunked so fresh
// snapshots are published while traffic flows — the chunk boundaries
// never reorder events, so the simulated outcome is identical either
// way.
func runScenario(p *core.Platform, horizon sim.Duration, srv *audit.Server, stderr io.Writer) {
	if srv == nil {
		p.RunFor(horizon)
		return
	}
	end := p.Eng.Now() + horizon
	chunk := horizon / 64
	if chunk <= 0 {
		chunk = horizon
	}
	for p.Eng.Now() < end {
		next := p.Eng.Now() + chunk
		if next > end {
			next = end
		}
		p.RunUntil(next)
		publishLive(p, horizon, srv, stderr)
	}
}

// publishLive renders the current registry into the endpoint's scrape
// buffer and refreshes the JSON progress snapshot.
func publishLive(p *core.Platform, horizon sim.Duration, srv *audit.Server, stderr io.Writer) {
	p.SnapshotMetrics()
	if suite := p.Telemetry(); suite != nil && suite.Registry != nil {
		if err := srv.PublishMetrics(suite.Registry.WriteOpenMetrics); err != nil {
			fmt.Fprintf(stderr, "socsim: publish metrics: %v\n", err)
		}
	}
	prog := struct {
		SimTimeNS  float64 `json:"sim_time_ns"`
		HorizonNS  float64 `json:"horizon_ns"`
		Violations uint64  `json:"violations"`
	}{p.Eng.Now().Nanoseconds(), horizon.Nanoseconds(), 0}
	if aud := p.Auditor(); aud != nil {
		prog.Violations = aud.TotalViolations()
	}
	if err := srv.PublishProgress(prog); err != nil {
		fmt.Fprintf(stderr, "socsim: publish progress: %v\n", err)
	}
}

// recordRun appends the finished run to the cross-run results store,
// reusing the sweep harness's record shape so socsim and sweep runs
// of the same configuration share fingerprints and metric names.
func recordRun(stderr io.Writer, dir string, spec core.RunSpec, auditOn bool, p *core.Platform, st core.AppStats) error {
	store, err := obs.Open(dir)
	if err != nil {
		return fmt.Errorf("-store: %w", err)
	}
	defer store.Close()
	mset := sweep.MechanismSet{DSU: spec.DSU, MemGuard: spec.MemGuard, Shape: spec.Shape, MPAM: spec.MPAM}
	sp := sweep.Spec{
		Label:    fmt.Sprintf("%s/hogs=%d/%s/%gms", mset, spec.Hogs, spec.HogClass, spec.Duration.Nanoseconds()/1e6),
		Kind:     sweep.Contention,
		Platform: spec,
	}
	sp.Platform.Audit = auditOn
	res := sweep.Result{Crit: st, RowHitRate: p.RowHitRate()}
	if aud := p.Auditor(); aud != nil {
		res.Violations = aud.TotalViolations()
		for _, s := range aud.Snapshot() {
			res.Observed += s.Observed
		}
	}
	var metrics []byte
	if suite := p.Telemetry(); suite != nil && suite.Registry != nil {
		var buf bytes.Buffer
		if err := suite.Registry.WriteOpenMetrics(&buf); err != nil {
			return fmt.Errorf("-store: render metrics: %w", err)
		}
		metrics = buf.Bytes()
	}
	rec, err := store.Append(sweep.RecordOf(sp, res, metrics))
	if err != nil {
		return fmt.Errorf("-store: %w", err)
	}
	fmt.Fprintf(stderr, "socsim: recorded run seq=%d label=%s into %s\n", rec.Seq, rec.Label, dir)
	return nil
}

// printAuditSummary reports per-app conformance and where the time
// went, stage by stage.
func printAuditSummary(w io.Writer, aud *audit.Auditor) {
	fmt.Fprintf(w, "runtime audit:\n")
	for _, s := range aud.Snapshot() {
		fmt.Fprintf(w, "  %-8s observed %d  max %.1f ns", s.App, s.Observed, s.MaxNS)
		if s.Bound.DelayBoundNS > 0 && s.Violations == 0 {
			fmt.Fprintf(w, "  bound %.1f ns  headroom %.1f ns", s.Bound.DelayBoundNS, s.HeadroomNS)
		}
		if s.Violations > 0 {
			fmt.Fprintf(w, "  VIOLATIONS %d (bound %.1f ns, worst overrun %.1f ns)",
				s.Violations, s.Bound.DelayBoundNS, -s.HeadroomNS)
		}
		fmt.Fprintln(w)
		for _, st := range s.Stages {
			if st.TotalPS == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-16s %5.1f%% of time  (max %.1f ns)\n",
				st.Stage, 100*st.Share, st.MaxPS.Nanoseconds())
		}
	}
}

// parseMesh parses -mesh: "WxH", or a bare "W" for a square mesh.
// Empty means unset (0, 0).
func parseMesh(s string) (w, h int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if n, e := fmt.Sscanf(s, "%dx%d", &w, &h); e == nil && n == 2 {
		// fallthrough to validation
	} else if n, e := fmt.Sscanf(s, "%d", &w); e == nil && n == 1 {
		h = w
	} else {
		return 0, 0, fmt.Errorf("-mesh %q: want WxH (e.g. 16x16)", s)
	}
	if w < 1 || h < 1 {
		return 0, 0, fmt.Errorf("-mesh %q: dimensions must be positive", s)
	}
	return w, h, nil
}
