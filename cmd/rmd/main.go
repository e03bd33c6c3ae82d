// Command rmd is the admission-control daemon: the networked Resource
// Manager fleet of internal/rmserver behind one HTTP listener. It
// serves the decision API (/v1/register, /v1/withdraw, /v1/modechange,
// /v1/batch, /v1/stats) alongside the observability endpoints of
// internal/audit (/metrics in OpenMetrics text, /healthz, /progress,
// /slo, /debug/pprof/*) — one port, one process, the paper's RM as a
// service.
//
// Usage:
//
//	rmd [-listen 127.0.0.1:9092] [-shards 4] [-queue 64]
//	    [-maxbatch 8192] [-store DIR]
//	    [-trace-sample 0] [-trace-ring 8192] [-trace FILE]
//
// The observability endpoints render on read: /metrics renders the
// fleet's registry, /progress its stats snapshot, and /slo evaluates
// the store, each when a GET arrives. An rmd nobody scrapes renders
// nothing.
//
// -store opens the cross-run obs store once at start-up. /slo
// evaluates the store's history against obs.ServiceSLOs on each GET,
// re-reading the log, so records other processes (rmload) append
// show up at once. When the daemon exits it appends a KindService
// session record (decision counts, latency quantiles,
// throttle/breaker totals) to the same store.
//
// -trace-sample enables request-scoped wall-clock tracing
// (internal/wtrace): each /v1/* request is head-sampled at the given
// probability (inbound W3C traceparent headers join their caller's
// trace), decomposed into parse → queue_wait → decision (per-op
// children) → encode spans, and served live as Chrome trace-event
// JSON on /v1/traces. The default 0 keeps the hot path span-free.
// -trace-ring bounds the in-memory span ring behind /v1/traces, and
// -trace writes that ring to FILE at drain: the same document
// /v1/traces serves (the last -trace-ring spans, with spans_total and
// dropped counting what the ring overwrote), loadable in Perfetto next
// to the simulator's virtual-time traces.
//
// On SIGTERM/SIGINT the daemon drains gracefully: the listener stops
// accepting, in-flight requests complete, every enqueued batch is
// decided, a drain summary is printed, and the process exits 0. No
// accepted work is dropped.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/rmserver"
	"repro/internal/telemetry"
	"repro/internal/wtrace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rmd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", "127.0.0.1:9092", "listen address for the API and observability endpoints")
		shards      = flag.Int("shards", 4, "number of RM shard loops")
		queue       = flag.Int("queue", 64, "per-shard pending-batch queue depth")
		maxBatch    = flag.Int("maxbatch", 8192, "max operations per batch request")
		storeDir    = flag.String("store", "", "obs store directory (session record on exit, /slo history)")
		traceSample = flag.Float64("trace-sample", 0, "head-sampling probability for request traces (0 = off)")
		traceRing   = flag.Int("trace-ring", 0, "completed spans retained for /v1/traces (0 = default 8192)")
		traceFile   = flag.String("trace", "", "write the span ring (the /v1/traces document) to this file at drain")
	)
	flag.Parse()

	reg := telemetry.NewRegistry()
	fleet := rmserver.New(rmserver.Config{
		Shards:     *shards,
		QueueDepth: *queue,
		MaxBatch:   *maxBatch,
	}, reg)

	tracer := wtrace.New(wtrace.Config{
		Sample:    *traceSample,
		RingSpans: *traceRing,
		Registry:  reg,
	})

	var store *obs.Store
	var slo func() (any, error)
	if *storeDir != "" {
		var err error
		if store, err = obs.Open(*storeDir); err != nil {
			return fmt.Errorf("-store: %w", err)
		}
		defer store.Close()
		slo = func() (any, error) { return obs.EvaluateStore(store, obs.ServiceSLOs()) }
	}

	start := time.Now()
	progress := func() any {
		return struct {
			UptimeSec float64        `json:"uptime_sec"`
			Stats     rmserver.Stats `json:"stats"`
		}{time.Since(start).Seconds(), fleet.Snapshot()}
	}
	srv, err := audit.NewServer(*listen, reg.WriteOpenMetrics, progress, slo)
	if err != nil {
		return err
	}
	srv.Handle("/v1/", rmserver.NewTracedHandler(fleet, tracer))

	fmt.Printf("rmd: serving on http://%s (%d shards, queue %d, max batch %d)\n",
		srv.Addr(), *shards, *queue, *maxBatch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Printf("rmd: %s received, draining\n", s)

	// Drain order matters: stop accepting first (no new work), then
	// finish every queued batch, then write the session record.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fleet.Drain()

	st := fleet.Snapshot()
	fmt.Printf("rmd: drained cleanly: %d decisions in %d batches, %d throttled, %d rejects, breaker %s (%d opens)\n",
		st.Decisions, st.Batches, st.Throttled, st.Rejects, st.BreakerState, st.BreakerOpens)

	if *traceFile != "" {
		if err := writeTraceFile(*traceFile, tracer, reg); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}

	if store != nil {
		if err := recordSession(store, reg, st, time.Since(start)); err != nil {
			return fmt.Errorf("session record: %w", err)
		}
	}
	return nil
}

// writeTraceFile writes the span ring to a file and reports how many
// sampled spans it holds and how many the ring overwrote.
func writeTraceFile(path string, tracer *wtrace.Tracer, reg *telemetry.Registry) error {
	if err := telemetry.WriteOutput(path, tracer.WriteTraceEvents); err != nil {
		return err
	}
	dropped := reg.Counter("wtrace_spans_dropped").Value()
	fmt.Printf("rmd: wrote %d sampled spans to %s (%d dropped by the ring)\n",
		tracer.SpansRecorded()-dropped, path, dropped)
	return nil
}

// recordSession appends the daemon's lifetime record to the obs store.
func recordSession(store *obs.Store, reg *telemetry.Registry, st rmserver.Stats, up time.Duration) error {
	var buf bytes.Buffer
	reg.WriteOpenMetrics(&buf)
	sec := up.Seconds()
	if sec <= 0 {
		sec = 1
	}
	_, err := store.Append(obs.RunRecord{
		Kind:  obs.KindService,
		Label: "rmd/session",
		Values: map[string]float64{
			"decisions":         float64(st.Decisions),
			"batches":           float64(st.Batches),
			"throttled":         float64(st.Throttled),
			"breaker_opens":     float64(st.BreakerOpens),
			"decisions_per_sec": float64(st.Decisions) / sec,
			"decision.p99_ns":   float64(st.DecisionP99),
			"shards":            float64(st.Shards),
		},
		Metrics: buf.String(),
	})
	return err
}
