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
//	       [-mpam] [-parallel N]
//	       [-mesh WxH] [-clusters N] [-channels N] [-apps-per-tile N]
//	       [-metrics file.om] [-trace file.json]
//	       [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// socsim runs one scenario. The scenario matrix (every mechanism
// against the isolated and contended baselines) is cmd/sweep's job:
// `sweep -mechs none,dsu,memguard,shape,mpam,all -hogs 0,6 -ms 1`
// prints the same latency and row-hit numbers per configuration.
//
// -parallel N runs the single-scenario event kernel with N
// conservative-lookahead partitions (lookahead = the mesh FlitTime).
// Output — stdout, metrics, traces — is byte-identical to the
// sequential engine for every N; see docs/PERFORMANCE.md ("Parallel
// kernel") for the protocol. N is clamped to the mesh
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
// flight. The run advances in 64 chunks; a scrape waits for the
// current chunk to end, snapshots and renders the platform, and
// releases it before writing to the socket, so a slow scraper cannot
// stall the run and an unscraped run renders nothing. Scrapes never
// change what the run computes. -linger keeps the endpoint serving
// after the run until SIGINT, so external scrapers (or CI's process
// smoke) can probe a finished run. With -listen, a SIGINT or SIGTERM
// during the run stops it at the next chunk, writes nothing and exits
// 1.
// -store appends the run's record — headline latencies, audit
// conformance, config fingerprint, and the full OpenMetrics snapshot
// — to the cross-run results store in that directory, where obsq can
// query it and the regression sentinel can judge later runs against
// it. See docs/OBSERVABILITY.md ("Runtime auditing" and "Cross-run
// store, SLOs, and regression sentinel").
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

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

	if *parallelN < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallelN)
	}

	horizon := sim.Duration(math.Round(*msec * float64(sim.Millisecond)))
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
	var live *liveRun
	var sigc chan os.Signal
	if *listen != "" {
		live = &liveRun{p: p, horizon: spec.Duration}
		srv, err = audit.NewServer(*listen, live.metrics, live.progress, nil)
		if err != nil {
			return err
		}
		// The handler goes in before the run: a background job of a
		// non-interactive shell starts with SIGINT ignored, and Notify
		// is what un-ignores it, so a later install would lose a
		// signal sent mid-run.
		sigc = make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		fmt.Fprintf(stderr, "socsim: live endpoint on http://%s (/metrics /healthz /progress /debug/pprof)\n", srv.Addr())
	}

	p.StartApps()
	if sig := runScenario(p, spec.Duration, live, sigc); sig != nil {
		_ = srv.Close() // the interruption is the error to report
		return fmt.Errorf("%v at %g of %g simulated ms; nothing written", sig,
			p.Eng.Now().Nanoseconds()/1e6, spec.Duration.Nanoseconds()/1e6)
	}

	if suite := p.Telemetry(); suite != nil {
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
			<-sigc // returns at once for a signal sent since the run
		}
		// Shutdown, not Close: a scrape answered as the run ends
		// gets its whole body instead of a connection cut mid-write.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	return nil
}

// runScenario advances the platform to the horizon and takes the
// final metrics snapshot. Without a live endpoint it is one RunFor;
// with one, the run goes in 64 chunks, each under live's lock, so a
// scrape can snapshot and render between two of them. Chunk
// boundaries never reorder events and a snapshot never changes what
// the run computes, so the outcome is identical either way. A signal
// on sigc stops the run at the next chunk boundary and is returned.
func runScenario(p *core.Platform, horizon sim.Duration, live *liveRun, sigc <-chan os.Signal) os.Signal {
	if live == nil {
		p.RunFor(horizon)
		p.SnapshotMetrics()
		return nil
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
		live.mu.Lock()
		p.RunUntil(next)
		live.mu.Unlock()
		select {
		case sig := <-sigc:
			return sig
		default:
		}
	}
	live.mu.Lock()
	defer live.mu.Unlock()
	p.SnapshotMetrics()
	live.ran = true
	return nil
}

// liveRun is the scenario as the live endpoint sees it. mu is held by
// each run chunk and by each scrape while it snapshots and renders
// into the server's buffer, never while the response goes out on the
// socket. Once ran is set the registry holds the final snapshot, which
// a scrape renders without touching the platform.
type liveRun struct {
	p       *core.Platform
	horizon sim.Duration

	mu  sync.Mutex
	ran bool
}

// metrics is the /metrics source.
func (l *liveRun) metrics(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.ran {
		l.p.SnapshotMetrics()
	}
	return l.p.Telemetry().Registry.WriteOpenMetrics(w)
}

// progress is the /progress source.
func (l *liveRun) progress() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	prog := struct {
		SimTimeNS  float64 `json:"sim_time_ns"`
		HorizonNS  float64 `json:"horizon_ns"`
		Violations uint64  `json:"violations"`
	}{l.p.Eng.Now().Nanoseconds(), l.horizon.Nanoseconds(), 0}
	if aud := l.p.Auditor(); aud != nil {
		prog.Violations = aud.TotalViolations()
	}
	return prog
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
