package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// sweepWorkers is the sweep's worker pool: one per core of the 2-core
// host the bounds were measured on.
const sweepWorkers = 2

// sweepSpan is the simulated time of each run in the matrix.
const sweepSpan = sim.Millisecond

// sweepMatrix runs the mechanism matrix (none, dsu, memguard, shape,
// mpam, all) × hogs {0, 6} × seeds {S, S+1} — 14 runs, the 0-hog
// baseline once per seed — through sweep.RunObserved on two workers,
// again and again. One op is one run. Each matrix's aggregate JSON must
// match the committed fingerprint at seed 1, and the first matrix's at
// any other seed.
type sweepMatrix struct{}

func (sweepMatrix) name() string { return "sweep-matrix" }

func (sweepMatrix) run(ctx context.Context, p params) (*outcome, error) {
	span := sweepSpan
	if p.span > 0 {
		span = p.span
	}
	var mechs []sweep.MechanismSet
	for _, m := range []string{"none", "dsu", "memguard", "shape", "mpam", "all"} {
		ms, err := sweep.ParseMechanismSet(m)
		if err != nil {
			return nil, err
		}
		mechs = append(mechs, ms)
	}
	mx := sweep.Matrix{
		Mechanisms: mechs,
		Hogs:       []int{0, 6},
		Durations:  []sim.Duration{span},
		Seeds:      []uint64{p.seed, p.seed + 1},
	}
	want, err := committedFingerprint("sweep-matrix", p.seed, span == sweepSpan)
	if err != nil {
		return nil, err
	}
	var dir string
	if p.trace {
		if dir, err = os.MkdirTemp(p.tmp, "bench-prof-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	out := newOutcome()
	var (
		setups        []float64 // ms per expansion, one per matrix
		execs         []float64 // ms per Execute, every untraced run
		busy          []float64 // per untraced matrix: Σ Execute / (workers × matrix wall)
		runs          int       // untraced runs completed
		plain, traced time.Duration
		tracedRuns    int
		profiles      []string
	)
	minRuns := 3
	if p.trace {
		minRuns = 4
	}
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < p.measured(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		specs, setup := expand(mx)
		setups = append(setups, ms(setup))

		var mu sync.Mutex
		var walls []time.Duration
		timed := func(s sweep.Spec) (sweep.Result, error) {
			t := time.Now()
			r, err := sweep.Execute(s)
			d := time.Since(t)
			mu.Lock()
			walls = append(walls, d)
			mu.Unlock()
			return r, err
		}
		prof := ""
		if p.trace && i%2 == 1 {
			prof = filepath.Join(dir, fmt.Sprintf("matrix%d.prof", i))
		}
		results, wall, err := runMatrix(specs, timed, prof)
		if err != nil {
			return nil, err
		}
		out.attempted += len(results)
		fp, err := aggregateFingerprint(results)
		if err != nil {
			return nil, err
		}
		switch {
		case want == nil:
			want = &fp
		case fp != *want:
			// The aggregate folds every run, so none of them is trusted.
			out.failed += len(results)
			fmt.Fprintf(os.Stderr, "bench: sweep-matrix matrix %d: output %v, want %v\n", i, fp, *want)
			continue
		}
		for _, r := range results {
			if r.Failed() {
				out.failed++
				fmt.Fprintf(os.Stderr, "bench: sweep-matrix %s: %s\n", r.Spec.Label, r.Err)
			}
		}
		if prof != "" {
			traced += wall
			tracedRuns += len(results)
			profiles = append(profiles, prof)
			continue
		}
		plain += wall
		runs += len(results)
		var sum time.Duration
		for _, d := range walls {
			sum += d
			execs = append(execs, ms(d))
		}
		busy = append(busy, float64(sum)/(sweepWorkers*float64(wall)))
	}
	if runs == 0 {
		return out, nil
	}

	v := out.values
	v["setup_s"] = median(setups) / 1e3
	v["throughput"] = float64(runs) / plain.Seconds()
	v["latency_ms"] = median(execs)
	v["latency_tail_ms"] = quantile(execs, tailQuantile(len(execs)))
	v["sweep.busy_ratio"] = median(busy)
	if v["peak_rss_mb"], err = peakRSS(os.Getpid()); err != nil {
		return nil, err
	}

	if p.trace && len(profiles) > 0 {
		self, err := attribute(ctx, profiles...)
		if err != nil {
			return nil, err
		}
		layerMetrics(self, tracedRuns, sweepWorkers, traced, v)
		v["trace.overhead"] = v["throughput"] / (float64(tracedRuns) / traced.Seconds())
	}
	return out, nil
}

// expandReps is how many times a matrix's specs are expanded to time
// one expansion: a single one takes tens of microseconds.
const expandReps = 64

// expand expands the matrix expandReps times and returns the specs with
// the mean time of one expansion.
func expand(mx sweep.Matrix) ([]sweep.Spec, time.Duration) {
	t := time.Now()
	var specs []sweep.Spec
	for k := 0; k < expandReps; k++ {
		specs = mx.Expand()
	}
	return specs, time.Since(t) / expandReps
}

// runMatrix runs the specs on the worker pool and times the whole
// matrix, under a CPU profile when prof is set.
func runMatrix(specs []sweep.Spec, exec sweep.Executor, prof string) ([]sweep.Result, time.Duration, error) {
	if prof != "" {
		f, err := os.Create(prof)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, 0, err
		}
		defer pprof.StopCPUProfile()
	}
	t := time.Now()
	results := sweep.RunObserved(specs, sweepWorkers, exec, nil)
	return results, time.Since(t), nil
}

// aggregateFingerprint hashes the sweep's aggregate JSON, which is
// byte-identical for any worker count and schedule.
func aggregateFingerprint(results []sweep.Result) (fingerprint, error) {
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, sweep.Summarize(results)); err != nil {
		return fingerprint{}, err
	}
	return fingerprint{Aggregate: fnv64a(buf.Bytes())}, nil
}
