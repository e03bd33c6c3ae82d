// Command admissionsim demonstrates the Section V admission-control
// overlay: applications activate one by one on a mesh, the Resource
// Manager renegotiates injection rates on every mode change, and the
// tool prints the per-mode rate table (Fig. 7) plus measured protocol
// overhead, for the symmetric and the non-symmetric (mixed-criticality)
// policy.
//
// Usage:
//
//	admissionsim [-apps 8] [-total 1.6] [-crit 2] [-critrate 0.4] [-us 200]
//	             [-metrics file.om] [-trace file.json]
//
// -metrics and -trace instrument the non-symmetric (second) policy
// run with the unified telemetry layer: the metrics file (OpenMetrics
// text) carries protocol counters and per-flow PMU monitor readings, the trace file
// is a Chrome trace_event timeline with admission mode-change spans,
// rejection instants, and per-flow NoC delivery spans. "-" writes to
// stdout.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/admission"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	apps := flag.Int("apps", 8, "number of applications to activate")
	total := flag.Float64("total", 1.6, "total budgeted injection rate (bytes/ns)")
	critN := flag.Int("crit", 2, "number of critical applications (non-symmetric policy)")
	critRate := flag.Float64("critrate", 0.4, "guaranteed critical rate (bytes/ns)")
	usec := flag.Int("us", 200, "microseconds between activations")
	metricsPath := flag.String("metrics", "", "write telemetry metrics as OpenMetrics text for the non-symmetric run (\"-\" for stdout)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline for the non-symmetric run (\"-\" for stdout)")
	flag.Parse()

	fmt.Println("== symmetric policy (Fig. 7: uniform degradation) ==")
	runPolicy(admission.Symmetric{TotalBytesPerNS: *total}, *apps, 0, *usec, "", "")

	fmt.Println()
	fmt.Println("== non-symmetric policy (critical guarantees preserved) ==")
	runPolicy(admission.NonSymmetric{
		TotalBytesPerNS:    *total,
		CriticalBytesPerNS: *critRate,
		FloorBytesPerNS:    0.01,
	}, *apps, *critN, *usec, *metricsPath, *tracePath)
}

func runPolicy(policy admission.RatePolicy, apps, critN, usec int, metricsPath, tracePath string) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, policy)
	if err != nil {
		fatal(err)
	}
	var suite *telemetry.Suite
	if metricsPath != "" || tracePath != "" {
		suite = telemetry.NewSuite(tracePath != "", sim.Millisecond)
		eng.SetObserver(telemetry.NewEngineObserver(suite.Registry, suite.Tracer, 0))
		mesh.SetTelemetry(suite.Registry, suite.Tracer, suite.Monitors)
		sys.SetTelemetry(suite.Registry, suite.Tracer)
	}

	// Print the policy's rate-vs-mode series (the Fig. 7 staircase).
	fmt.Println("mode  rates (bytes/ns)")
	var active []admission.AppRef
	for m := 1; m <= apps; m++ {
		crit := admission.BestEffort
		if m <= critN {
			crit = admission.Critical
		}
		active = append(active, admission.AppRef{Name: appName(m - 1), Crit: crit})
		rates := admission.Rates(policy, active)
		fmt.Printf("%4d  ", m)
		for i := 0; i < m; i++ {
			fmt.Printf("%s=%.3f ", appName(i), rates[appName(i)])
		}
		fmt.Println()
	}

	// Live run: activate the apps in sequence and measure the
	// protocol.
	for i := 0; i < apps; i++ {
		i := i
		node := noc.Coord{X: i % 4, Y: (i / 4) % 4}
		cl, err := sys.Client(node)
		if err != nil {
			fatal(err)
		}
		crit := admission.BestEffort
		if i < critN {
			crit = admission.Critical
		}
		if err := cl.Register(appName(i), crit); err != nil {
			fatal(err)
		}
		eng.At(sim.Duration(i)*sim.Duration(usec)*sim.Microsecond, func() {
			for k := 0; k < 50; k++ {
				_ = cl.Submit(appName(i), &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
			}
		})
	}
	eng.RunUntil(sim.Duration(apps+2) * sim.Duration(usec) * sim.Microsecond)

	st := sys.Stats()
	fmt.Printf("mode changes: %d, admitted: %d, messages: act=%d ter=%d stop=%d conf=%d\n",
		st.ModeChanges, st.Admitted,
		st.Messages[admission.ActMsg], st.Messages[admission.TerMsg],
		st.Messages[admission.StopMsg], st.Messages[admission.ConfMsg])
	fmt.Printf("mode-change latency: mean %.1f ns, max %.1f ns\n",
		st.MeanModeChangeLatencyNS(), st.MaxModeLat)
	fmt.Printf("final mode: %d\n", sys.RM().Mode())

	if suite != nil {
		suite.Monitors.Snapshot(suite.Registry, eng.Now())
		if err := suite.DumpFiles(metricsPath, tracePath); err != nil {
			fatal(err)
		}
	}
}

func appName(i int) string { return fmt.Sprintf("app%d", i) }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "admissionsim: %v\n", err)
	os.Exit(1)
}
