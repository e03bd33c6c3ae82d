package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/rmserver"
	"repro/internal/telemetry"
)

// rmdConns is the number of client connections, one per core of the
// 2-core host the bounds were measured on. Each is one sending
// goroutine with one keep-alive connection.
const rmdConns = 2

// rmdSpawns is how many times setup starts rmd; setup_s is the median
// start-up time.
const rmdSpawns = 10

// rmdWorkload is one traffic mix against a fresh rmd daemon. A run is a
// warm-up, an open loop at the fixed rate (latency), and a closed-loop
// saturation phase with no pacing (throughput). One op is one request.
type rmdWorkload struct {
	id string
	// rate is the open-loop arrival rate over all connections, about a
	// quarter of the saturation rate measured on the reference host.
	rate float64
	gen  func(seed uint64, conn int) generator
	// sampledOpenLoop is how many open-loop requests the traced run
	// samples into spans; with the span ring below none is dropped.
	sampledOpenLoop float64
}

func (w rmdWorkload) name() string { return w.id }

const traceRing = 1 << 17

var (
	rmdBatch    = rmdWorkload{id: "rmd-batch", rate: 800, gen: newBatchGen, sampledOpenLoop: 100}
	rmdStanding = rmdWorkload{id: "rmd-standing", rate: 1500, gen: newStandingGen, sampledOpenLoop: 300}
	rmdSmall    = rmdWorkload{id: "rmd-small", rate: 5000, gen: newSmallGen, sampledOpenLoop: 300}
)

// reply is what one request got back.
type reply struct {
	ok       bool // transport succeeded with status 200
	summary  rmserver.BatchSummary
	decision rmserver.Decision
	traceID  string // set when the server sampled the request
	rtt      time.Duration
}

// conn is one client connection with its request sequence and replies.
type conn struct {
	id      int
	client  *http.Client
	base    string
	gen     generator
	replies []reply
}

// send issues the connection's next request and records the reply. A
// transport error or a non-200 status is returned as an error.
func (c *conn) send(ctx context.Context) error {
	req := c.gen.next()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		c.replies = append(c.replies, reply{}) // keeps replies aligned with the sequence
		return err
	}
	hr.Header.Set("Content-Type", req.ctype)
	t := time.Now()
	resp, err := c.client.Do(hr)
	var rep reply
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.rtt = time.Since(t)
		switch {
		case rerr != nil:
			err = rerr
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
		case req.path == "/v1/batch":
			err = json.Unmarshal(body, &rep.summary)
		default:
			err = json.Unmarshal(body, &rep.decision)
		}
		if tp := resp.Header.Get("traceparent"); tp != "" {
			if f := strings.Split(tp, "-"); len(f) == 4 {
				rep.traceID = f[1]
			}
		}
	}
	rep.ok = err == nil
	c.replies = append(c.replies, rep)
	return err
}

// session is one rmd daemon under load from rmdConns connections.
type session struct {
	w     rmdWorkload
	seed  uint64
	proc  *rmdProc
	conns []*conn
}

func newSession(w rmdWorkload, seed uint64, proc *rmdProc) *session {
	s := &session{w: w, seed: seed, proc: proc}
	for i := 0; i < rmdConns; i++ {
		s.conns = append(s.conns, &conn{
			id: i,
			client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
			base: "http://" + proc.addr,
			gen:  w.gen(seed, i),
		})
	}
	return s
}

// close releases the connections.
func (s *session) close() {
	for _, c := range s.conns {
		c.client.CloseIdleConnections()
	}
}

// each runs f once per connection, concurrently, and waits.
func (s *session) each(f func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range s.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// openLoop drives Poisson arrivals at the workload's rate for warm+d
// and returns the samples due after warm, in due order per connection.
func (s *session) openLoop(ctx context.Context, warm, d time.Duration) []sample {
	start := time.Now().Add(time.Millisecond)
	per := make([][]sample, len(s.conns))
	s.each(func(c *conn) {
		rng := rand.New(rand.NewSource(int64(s.seed)*7919 + int64(c.id) + int64(len(c.replies))))
		dues := poissonDues(rng, s.w.rate/rmdConns, warm+d)
		for _, smp := range openLoop(wallClock{}, start, dues, func() error { return c.send(ctx) }) {
			if smp.due >= warm {
				per[c.id] = append(per[c.id], smp)
			}
		}
	})
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// saturate sends with no pacing for d and returns decisions per
// second over the phase.
func (s *session) saturate(ctx context.Context, d time.Duration) float64 {
	start := time.Now()
	end := start.Add(d)
	counts := make([]int, len(s.conns))
	s.each(func(c *conn) {
		for time.Now().Before(end) && ctx.Err() == nil {
			if c.send(ctx) == nil {
				counts[c.id] += decisionsOf(c.replies[len(c.replies)-1])
			}
		}
	})
	var n int
	for _, k := range counts {
		n += k
	}
	return float64(n) / time.Since(start).Seconds()
}

func decisionsOf(r reply) int {
	if r.summary.Ops > 0 {
		return r.summary.Ops
	}
	return 1
}

// verify replays every connection's request sequence through an
// in-process rmserver.Fleet and compares each reply with the replayed
// decisions. It returns the requests sent and the requests that
// failed: a transport error, a non-200 status, an op without a
// decision, or a decision the replay does not reproduce.
func (s *session) verify() (attempted, failed int) {
	fleet := rmserver.New(rmserver.Config{}, telemetry.NewRegistry())
	defer fleet.Drain()
	for _, c := range s.conns {
		gen := s.w.gen(s.seed, c.id)
		for i, rep := range c.replies {
			req := gen.next()
			want := fleet.Do(req.ops)
			attempted++
			if err := check(req, rep, want); err != nil {
				failed++
				if failed <= 5 {
					fmt.Fprintf(os.Stderr, "bench: %s conn %d request %d: %v\n", s.w.id, c.id, i, err)
				}
			}
		}
	}
	return attempted, failed
}

// check compares one reply with the replayed decisions.
func check(req request, rep reply, want []rmserver.Decision) error {
	if !rep.ok {
		return fmt.Errorf("request failed")
	}
	if req.path != "/v1/batch" {
		if rep.decision != want[0] {
			return fmt.Errorf("decision %+v, replay %+v", rep.decision, want[0])
		}
		return nil
	}
	var admitted, rejected int
	for _, d := range want {
		if d.OK {
			admitted++
		} else {
			rejected++
		}
	}
	got := rep.summary
	if got.Ops != len(req.ops) || got.Throttled != 0 || got.Admitted+got.Rejected != got.Ops {
		return fmt.Errorf("summary %+v for %d ops: not every op was decided", got, len(req.ops))
	}
	if got.Admitted != admitted || got.Rejected != rejected {
		return fmt.Errorf("admitted/rejected %d/%d, replay %d/%d", got.Admitted, got.Rejected, admitted, rejected)
	}
	return nil
}

// run measures one traffic mix: a warm-up, then an open loop and a
// saturation phase of half the run each. The traced run gives the open
// loop a quarter of the run on an untraced daemon, which supplies every
// per-layer number except the CPU and span breakdowns, and half the run
// on a traced daemon (see startTraced), so the profile holds enough
// samples; the two daemons then take turns at saturation for another
// half, so trace.overhead compares them under the same client and host
// state.
func (w rmdWorkload) run(ctx context.Context, p params) (*outcome, error) {
	d := p.measured()
	warm, phase := d/10, d/2
	if p.trace {
		phase = d / 4
	}
	out := newOutcome()
	v := out.values

	proc, setups, err := spawnRMD(ctx, p.rmd, rmdSpawns)
	if err != nil {
		return nil, err
	}
	defer proc.kill()
	s := newSession(w, p.seed, proc)
	defer s.close()
	samples := s.openLoop(ctx, warm, phase)
	var sat float64
	if p.trace {
		t, err := startTraced(ctx, w, p, warm, d/2, v)
		if err != nil {
			return nil, err
		}
		defer t.proc.kill()
		defer t.close()
		// Turns alternate which daemon goes first, so neither gains
		// from its place in the order.
		var plain, traced []float64
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				plain = append(plain, s.saturate(ctx, d/16))
			}
			traced = append(traced, t.saturate(ctx, d/16))
			if i%2 == 1 {
				plain = append(plain, s.saturate(ctx, d/16))
			}
		}
		sat = median(plain)
		v["trace.overhead"] = sat / median(traced)
		if err := t.proc.stop(); err != nil {
			return nil, err
		}
		out.attempted, out.failed = t.verify()
	} else {
		sat = s.saturate(ctx, phase)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if v["peak_rss_mb"], err = peakRSS(proc.cmd.Process.Pid); err != nil {
		return nil, err
	}
	stats, err := fetchStats(proc)
	if err != nil {
		return nil, err
	}
	if err := proc.stop(); err != nil {
		return nil, err
	}
	a, f := s.verify()
	out.attempted += a
	out.failed += f

	lat := latencyMS(samples)
	var late int
	for _, s := range samples {
		if s.late >= time.Millisecond {
			late++
		}
	}
	v["setup_s"] = median(durations(setups)) / 1e3
	v["throughput"] = sat
	v["latency_ms"] = quantile(lat, 0.5)
	v["latency_tail_ms"] = quantile(lat, tailQuantile(len(lat)))
	if len(samples) > 0 {
		v["loadgen.late_ratio"] = float64(late) / float64(len(samples))
	}
	if stats.DecisionMean > 0 {
		v["rmserver.decision_rate"] = 1e9 / stats.DecisionMean
	}
	if stats.Decisions > 0 {
		v["rmserver.reject_ratio"] = float64(stats.Rejects) / float64(stats.Decisions)
	}
	v["rmserver.throttled"] = float64(stats.Throttled)
	for _, sh := range stats.PerShard {
		v["rmserver.queue_depth_peak"] = max(v["rmserver.queue_depth_peak"], sh.QueueDepthPeak)
	}
	return out, nil
}

// startTraced starts a daemon that samples requests into spans (sized
// so the span ring drops none) and runs the open loop against it,
// fetching a CPU profile from /debug/pprof over the loop and the
// per-stage breakdown from /v1/traces after it. The daemon is left
// running for the saturation turns.
func startTraced(ctx context.Context, w rmdWorkload, p params, warm, open time.Duration, v map[string]float64) (*session, error) {
	sampleP := min(1, w.sampledOpenLoop/(w.rate*open.Seconds()))
	proc, _, err := startRMD(ctx, p.rmd, "-trace-sample", fmt.Sprint(sampleP), "-trace-ring", fmt.Sprint(traceRing))
	if err != nil {
		return nil, err
	}
	s := newSession(w, p.seed, proc)
	fail := func(err error) (*session, error) {
		s.close()
		proc.kill()
		return nil, err
	}
	s.openLoop(ctx, warm, 0)

	dir, err := os.MkdirTemp(p.tmp, "bench-prof-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	profPath := filepath.Join(dir, "rmd.prof")
	profiled := time.Duration(max(1, int(open.Seconds()))) * time.Second
	profErr := make(chan error, 1)
	go func() {
		profErr <- fetchFile(ctx, proc.url(fmt.Sprintf("/debug/pprof/profile?seconds=%d", int(profiled.Seconds()))), profPath)
	}()
	warmed := make([]int, len(s.conns))
	for i, c := range s.conns {
		warmed[i] = len(c.replies)
	}
	samples := s.openLoop(ctx, 0, open)
	if err := <-profErr; err != nil {
		return fail(err)
	}
	self, err := attribute(ctx, profPath)
	if err != nil {
		return fail(err)
	}
	inWindow := 0
	for _, smp := range samples {
		if smp.due < profiled {
			inWindow++
		}
	}
	layerMetrics(self, inWindow, runtime.NumCPU(), profiled, v)

	doc, err := fetchTraces(proc)
	if err != nil {
		return fail(err)
	}
	if doc.Dropped != 0 {
		return fail(fmt.Errorf("span ring dropped %d spans; raise the ring or lower the sample rate", doc.Dropped))
	}
	rtts := map[string]time.Duration{}
	for i, c := range s.conns {
		for _, r := range c.replies[warmed[i]:] {
			if r.traceID != "" {
				rtts[r.traceID] = r.rtt
			}
		}
	}
	stageShares(doc, rtts, v)
	return s, nil
}

func fetchStats(proc *rmdProc) (rmserver.Stats, error) {
	var st rmserver.Stats
	resp, err := http.Get(proc.url("/v1/stats"))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// fetchFile saves a GET response body to path.
func fetchFile(ctx context.Context, url, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceDoc is the Chrome trace JSON served on /v1/traces.
type traceDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`  // µs
		Dur  float64           `json:"dur"` // µs
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	Dropped uint64 `json:"dropped"`
}

func fetchTraces(proc *rmdProc) (*traceDoc, error) {
	resp, err := http.Get(proc.url("/v1/traces"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc traceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/v1/traces: %w", err)
	}
	return &doc, nil
}

// stageShares splits the client round trip of every sampled request
// into parse, queue wait, decision, encode and transport (round trip
// minus the server's request span), as shares of the total round trip.
// A request fanned out to several shards is charged the queue wait and
// decision of the shard that finished last.
func stageShares(doc *traceDoc, rtts map[string]time.Duration, v map[string]float64) {
	type shardSpan struct{ wait, dec, end float64 }
	type reqSpans struct {
		request, parse, encode float64
		shards                 map[string]*shardSpan
	}
	reqs := map[string]*reqSpans{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id := e.Args["trace_id"]
		if _, ok := rtts[id]; !ok {
			continue
		}
		r := reqs[id]
		if r == nil {
			r = &reqSpans{shards: map[string]*shardSpan{}}
			reqs[id] = r
		}
		shard := func() *shardSpan {
			sh := r.shards[e.Args["shard"]]
			if sh == nil {
				sh = &shardSpan{}
				r.shards[e.Args["shard"]] = sh
			}
			return sh
		}
		switch e.Name {
		case "request":
			r.request = e.Dur
		case "parse":
			r.parse = e.Dur
		case "encode":
			r.encode = e.Dur
		case "queue_wait":
			shard().wait = e.Dur
		case "decision":
			sh := shard()
			sh.dec, sh.end = e.Dur, e.Ts+e.Dur
		}
	}
	var rtt, parse, wait, dec, enc, transport float64
	for id, r := range reqs {
		if r.request == 0 {
			continue
		}
		var last shardSpan
		for _, sh := range r.shards {
			if sh.end >= last.end {
				last = *sh
			}
		}
		t := float64(rtts[id]) / 1e3 // µs, as the spans
		rtt += t
		parse += r.parse
		wait += last.wait
		dec += last.dec
		enc += r.encode
		transport += t - r.request
	}
	if rtt > 0 {
		v["rmserver.parse_pct"] = 100 * parse / rtt
		v["rmserver.queue_wait_pct"] = 100 * wait / rtt
		v["rmserver.decision_pct"] = 100 * dec / rtt
		v["rmserver.encode_pct"] = 100 * enc / rtt
		v["http.transport_pct"] = 100 * transport / rtt
	}
}
