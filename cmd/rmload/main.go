// Command rmload drives an rmd instance with a synthetic admission
// workload and judges the outcome. It is the service plane's soak
// harness: paced batches measure the steady-state path (availability
// and latency under normal load). The overload path (429s with
// Retry-After, the circuit breaker opening) is exercised in-process by
// internal/rmserver's TestHTTPOverloadBackpressure.
//
// Usage:
//
//	rmload -addr 127.0.0.1:9092 [-duration 5s]
//	       [-batch 512] [-conns 2] [-platforms 32] [-interval 5ms]
//	       [-store DIR] [-strict] [-traceparent HDR]
//
// -traceparent attaches a fixed W3C traceparent header to every batch
// request, so a traced rmd (rmd -trace-sample > 0) records the load
// run's sampled requests under the given trace id — the way a real
// upstream caller would propagate context into the admission service.
//
// Batches use the compact text/x-rmops wire format (see
// internal/rmserver): each batch registers batch/2 apps and withdraws
// them again, so platform state stays bounded while every operation
// exercises the full analytic admission path.
//
// -store appends a KindService record labeled "rmload/soak" —
// decisions/sec, availability, client and server latency quantiles,
// throttle and breaker counts, plus the server's full OpenMetrics
// snapshot — to the cross-run obs store, where obs.ServiceSLOs and
// the regression sentinel (obsq sentinel) judge the trajectory.
// -strict additionally evaluates the service SLOs over the store
// after recording and exits 1 if any objective is unmet.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rmserver"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rmload:", err)
		os.Exit(1)
	}
}

type result struct {
	requests  uint64
	ok        uint64
	throttled uint64
	errors    uint64
	admitted  uint64
	rejected  uint64
	shed      uint64 // per-op throttles inside 2xx/429 summaries
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:9092", "rmd address")
		duration  = flag.Duration("duration", 5*time.Second, "how long to drive load")
		batch     = flag.Int("batch", 512, "operations per batch request (register+withdraw pairs)")
		conns     = flag.Int("conns", 2, "concurrent sender connections")
		platforms = flag.Int("platforms", 32, "distinct platforms in the workload")
		interval  = flag.Duration("interval", 5*time.Millisecond, "pacing between batches per connection")
		storeDir  = flag.String("store", "", "obs store directory to append the run record to")
		strict    = flag.Bool("strict", false, "evaluate obs.ServiceSLOs over the store and fail if unmet")
		tracepar  = flag.String("traceparent", "", "W3C traceparent header to attach to every batch request")
	)
	flag.Parse()

	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}
	if err := waitHealthy(client, base, 5*time.Second); err != nil {
		return err
	}

	lat := telemetry.NewHistogram()
	var (
		mu    sync.Mutex
		total result
	)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := sender(client, base, c, *batch, *platforms, *interval, deadline, lat, *tracepar)
			mu.Lock()
			total.requests += r.requests
			total.ok += r.ok
			total.throttled += r.throttled
			total.errors += r.errors
			total.admitted += r.admitted
			total.rejected += r.rejected
			total.shed += r.shed
			mu.Unlock()
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	stats, err := fetchStats(client, base)
	if err != nil {
		return fmt.Errorf("fetch /v1/stats: %w", err)
	}

	decisions := total.admitted + total.rejected
	availability := 1.0
	if total.requests > 0 {
		availability = float64(total.ok) / float64(total.requests)
	}
	perSec := float64(decisions) / elapsed.Seconds()

	fmt.Printf("rmload: %d reqs (%d ok, %d throttled, %d errors) in %.2fs\n",
		total.requests, total.ok, total.throttled, total.errors, elapsed.Seconds())
	fmt.Printf("rmload: %d decisions (%.0f/sec), %d ops shed, availability %.4f\n",
		decisions, perSec, total.shed, availability)
	fmt.Printf("rmload: client batch p50/p99 %s/%s, server decision p50/p99 %dns/%dns\n",
		time.Duration(lat.Quantile(0.50)), time.Duration(lat.Quantile(0.99)),
		stats.DecisionP50, stats.DecisionP99)
	fmt.Printf("rmload: server: %d decisions, %d throttled, breaker %s (%d opens)\n",
		stats.Decisions, stats.Throttled, stats.BreakerState, stats.BreakerOpens)
	if total.errors > 0 {
		return fmt.Errorf("%d requests failed outright", total.errors)
	}

	if *storeDir != "" {
		if err := record(*storeDir, client, base, flagsFP(*batch, *conns, *platforms, *interval),
			decisions, perSec, availability, lat, stats, total); err != nil {
			return fmt.Errorf("record run: %w", err)
		}
	}
	if *strict {
		return gate(*storeDir)
	}
	return nil
}

// sender drives one connection until the deadline.
func sender(client *http.Client, base string, id, batch, platforms int, pace time.Duration, deadline time.Time, lat *telemetry.Histogram, traceparent string) result {
	var res result
	var body bytes.Buffer
	seq := 0
	for time.Now().Before(deadline) {
		body.Reset()
		buildBatch(&body, id, seq, batch, platforms)
		seq++

		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/batch", bytes.NewReader(body.Bytes()))
		if err != nil {
			res.errors++
			res.requests++
			continue
		}
		req.Header.Set("Content-Type", rmserver.OpsContentType)
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := client.Do(req)
		if err != nil {
			res.errors++
			res.requests++
			continue
		}
		lat.Record(time.Since(t0).Nanoseconds())
		res.requests++
		var sum rmserver.BatchSummary
		derr := decodeJSON(resp.Body, &sum)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK && derr == nil:
			res.ok++
		case resp.StatusCode == http.StatusTooManyRequests:
			res.throttled++
		default:
			res.errors++
		}
		if derr == nil {
			res.admitted += uint64(sum.Admitted)
			res.rejected += uint64(sum.Rejected)
			res.shed += uint64(sum.Throttled)
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	return res
}

// buildBatch writes batch/2 register+withdraw pairs in the compact
// format. App names are unique per (connection, batch) so registers
// never collide across in-flight batches; bursts and deadlines are
// chosen to pass the analytic admission test, so the soak path
// measures the admit path, not the reject path.
func buildBatch(w *bytes.Buffer, id, seq, batch, platforms int) {
	pairs := batch / 2
	if pairs < 1 {
		pairs = 1
	}
	for i := 0; i < pairs; i++ {
		plat := "p" + strconv.Itoa((seq*pairs+i)%platforms)
		app := "c" + strconv.Itoa(id) + "b" + strconv.Itoa(seq) + "n" + strconv.Itoa(i)
		w.WriteString("r ")
		w.WriteString(plat)
		w.WriteByte(' ')
		w.WriteString(app)
		w.WriteString(" b 64 1000000\n") // 64 B burst, 1 ms deadline
		w.WriteString("w ")
		w.WriteString(plat)
		w.WriteByte(' ')
		w.WriteString(app)
		w.WriteByte('\n')
	}
}

func waitHealthy(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service at %s not healthy after %s", base, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fetchStats(client *http.Client, base string) (rmserver.Stats, error) {
	var st rmserver.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, decodeJSON(resp.Body, &st)
}

func decodeJSON(r io.Reader, v any) error {
	b, err := io.ReadAll(io.LimitReader(r, 64<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// flagsFP fingerprints the load shape. The fixed "profile" entry keeps
// the fingerprint equal to that of the soak records already in stores.
func flagsFP(batch, conns, platforms int, pace time.Duration) string {
	return obs.FingerprintConfig(map[string]string{
		"profile":   "soak",
		"batch":     strconv.Itoa(batch),
		"conns":     strconv.Itoa(conns),
		"platforms": strconv.Itoa(platforms),
		"pace":      pace.String(),
	})
}

// record appends the run's evidence — including the server's live
// OpenMetrics snapshot — to the obs store.
func record(dir string, client *http.Client, base, fp string,
	decisions uint64, perSec, availability float64,
	lat *telemetry.Histogram, stats rmserver.Stats, total result) error {
	var metrics string
	if resp, err := client.Get(base + "/metrics"); err == nil {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		metrics = string(b)
	}
	store, err := obs.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	if rec := store.Recovery(); rec.Recovered > 0 {
		fmt.Fprintf(os.Stderr, "rmload: warning: store recovered from a crashed writer: %s\n", rec.Message)
	}
	_, err = store.Append(obs.RunRecord{
		Kind:     obs.KindService,
		Label:    "rmload/soak",
		ConfigFP: fp,
		Values: map[string]float64{
			"decisions":         float64(decisions),
			"decisions_per_sec": perSec,
			"availability":      availability,
			"client.p99_ns":     float64(lat.Quantile(0.99)),
			"decision.p99_ns":   float64(stats.DecisionP99),
			"throttled":         float64(stats.Throttled),
			"breaker_opens":     float64(stats.BreakerOpens),
			"requests":          float64(total.requests),
			"requests_429":      float64(total.throttled),
		},
		Metrics: metrics,
	})
	return err
}

// gate evaluates the service SLOs over the store's history; any unmet
// objective fails the run.
func gate(dir string) error {
	if dir == "" {
		return fmt.Errorf("-strict needs -store")
	}
	store, err := obs.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	statuses, err := obs.EvaluateStore(store, obs.ServiceSLOs())
	if err != nil {
		return err
	}
	bad := 0
	for _, st := range statuses {
		state := "met"
		if !st.Met {
			state = "UNMET"
			bad++
		}
		fmt.Printf("rmload: slo %-22s %s (attainment %.4f over %d runs, burn %.2f)\n",
			st.SLO.Name, state, st.Attainment, st.Runs, st.BurnRate)
	}
	if bad > 0 {
		return fmt.Errorf("%d service SLO(s) unmet", bad)
	}
	return nil
}
