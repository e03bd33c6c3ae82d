package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Scraper is the live half of the observability plane: where the Store
// tracks cross-run trajectories, the Scraper polls one process's
// /metrics endpoint and keeps a fixed-size ring of recent points per
// sample, so `obsq watch` can show burn rates while the service is
// still running instead of after the run lands in the store. It speaks
// the subset of OpenMetrics text exposition that
// telemetry.WriteOpenMetrics emits — labeled sample lines, summary
// quantiles, exemplar clauses — and keys series by the full sample
// name including its label block, so
// `rmserver_shard_queue_wait_ns{shard="3",quantile="0.99"}` is its own
// series.
type Scraper struct {
	url    string
	size   int
	client *http.Client
	// nowMilli stamps ingested points; tests pin it.
	nowMilli func() int64

	mu      sync.Mutex
	series  map[string]*scrapeSeries
	scrapes int
	fails   int
	lastErr error
}

// ScrapePoint is one observed sample value.
type ScrapePoint struct {
	UnixMilli int64   `json:"unix_milli"`
	Value     float64 `json:"value"`
}

// scrapeSeries is a fixed-size ring of points, oldest overwritten
// first — bounded memory no matter how long a watch runs.
type scrapeSeries struct {
	buf  []ScrapePoint
	next int
	n    int
}

func (r *scrapeSeries) push(p ScrapePoint) {
	r.buf[r.next] = p
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// points returns the ring oldest-first.
func (r *scrapeSeries) points() []ScrapePoint {
	out := make([]ScrapePoint, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// DefaultScrapeRing is the per-series ring size when NewScraper is
// given 0: at a 1s poll interval it holds ~8.5 minutes of history.
const DefaultScrapeRing = 512

// NewScraper builds a scraper polling url (an OpenMetrics endpoint,
// e.g. http://localhost:9090/metrics) with ringSize points retained
// per series (0 = DefaultScrapeRing).
func NewScraper(url string, ringSize int) *Scraper {
	if ringSize <= 0 {
		ringSize = DefaultScrapeRing
	}
	return &Scraper{
		url:      url,
		size:     ringSize,
		client:   &http.Client{Timeout: 10 * time.Second},
		nowMilli: func() int64 { return time.Now().UnixMilli() },
		series:   make(map[string]*scrapeSeries),
	}
}

// Scrape polls the endpoint once and ingests the exposition. Failures
// are counted and retained (LastError) but leave existing series
// intact — a watch rides out a restarting service.
func (s *Scraper) Scrape() error {
	resp, err := s.client.Get(s.url)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("obs: scrape %s: HTTP %d", s.url, resp.StatusCode)
		}
		if err == nil {
			s.Ingest(body, s.nowMilli())
			return nil
		}
	}
	s.mu.Lock()
	s.fails++
	s.lastErr = err
	s.mu.Unlock()
	return err
}

// Ingest parses one exposition payload and records every sample at the
// given timestamp. Returns the number of samples recorded. Comment,
// metadata, and unparsable lines are skipped — a scraper is a
// consumer, not a linter (cmd/omlint is the linter). Sample lines are
// read by telemetry.ParseSample, so a label block may hold spaces, '#'
// and '}' inside quoted values, and a timestamp or exemplar clause
// after the value is ignored.
func (s *Scraper) Ingest(text []byte, atUnixMilli int64) int {
	recorded := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	rest := string(text)
	for len(rest) > 0 {
		var line string
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			line, rest = rest, ""
		}
		sample, err := telemetry.ParseSample(line)
		if err != nil {
			continue
		}
		name := sample.Name + sample.Labels
		sr := s.series[name]
		if sr == nil {
			sr = &scrapeSeries{buf: make([]ScrapePoint, s.size)}
			s.series[name] = sr
		}
		sr.push(ScrapePoint{UnixMilli: atUnixMilli, Value: sample.Value})
		recorded++
	}
	s.scrapes++
	return recorded
}

// Names returns every series name seen so far, sorted.
func (s *Scraper) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Latest returns the most recent point of a series.
func (s *Scraper) Latest(name string) (ScrapePoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[name]
	if sr == nil || sr.n == 0 {
		return ScrapePoint{}, false
	}
	i := sr.next - 1
	if i < 0 {
		i += len(sr.buf)
	}
	return sr.buf[i], true
}

// Points returns a series' retained points oldest-first.
func (s *Scraper) Points(name string) []ScrapePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[name]
	if sr == nil {
		return nil
	}
	return sr.points()
}

// Rate computes a counter series' per-second rate over the retained
// window: the sum of positive consecutive deltas divided by the
// elapsed time. A negative delta is a counter reset (process restart)
// and contributes nothing — the standard monotonic-counter treatment.
// Needs at least two points spanning nonzero time.
func (s *Scraper) Rate(name string) (float64, bool) {
	pts := s.Points(name)
	return ratePoints(pts)
}

func ratePoints(pts []ScrapePoint) (float64, bool) {
	if len(pts) < 2 {
		return 0, false
	}
	elapsed := pts[len(pts)-1].UnixMilli - pts[0].UnixMilli
	if elapsed <= 0 {
		return 0, false
	}
	var sum float64
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Value - pts[i-1].Value; d > 0 {
			sum += d
		}
	}
	return sum / (float64(elapsed) / 1000), true
}

// Stats reports scrape attempts: successful ingests, failures, and the
// most recent failure (nil when the last scrape succeeded).
func (s *Scraper) Stats() (ok, failed int, lastErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrapes, s.fails, s.lastErr
}

// LiveSLO is an objective over a live series rather than stored runs:
// "of the retained points (or point-to-point rates), at least Target
// must be Op Goal". It reuses the store SLOs' burn-rate semantics so
// `obsq watch` and `obsq slo` read the same way.
type LiveSLO struct {
	Name string `json:"name"`
	// Sample is the series name, label block included (e.g.
	// `rmserver_decision_latency_ns{quantile="0.99"}`).
	Sample string `json:"sample"`
	// Rate evaluates the per-second rate between consecutive points
	// instead of the level — for counters.
	Rate   bool    `json:"rate,omitempty"`
	Op     string  `json:"op"`
	Goal   float64 `json:"goal"`
	Target float64 `json:"target"`
}

// Validate checks the spec.
func (l LiveSLO) Validate() error {
	if l.Name == "" || l.Sample == "" {
		return fmt.Errorf("obs: live SLO needs name and sample: %+v", l)
	}
	if l.Op != ">=" && l.Op != "<=" {
		return fmt.Errorf("obs: live SLO %s: op %q, want \">=\" or \"<=\"", l.Name, l.Op)
	}
	if l.Target <= 0 || l.Target > 1 {
		return fmt.Errorf("obs: live SLO %s: target %v, want (0, 1]", l.Name, l.Target)
	}
	return nil
}

// LiveStatus is one live objective's evaluation over the retained
// window.
type LiveStatus struct {
	SLO LiveSLO `json:"slo"`
	// Points counted (rates for Rate objectives); Good of them met the
	// goal.
	Points int `json:"points"`
	Good   int `json:"good"`
	// Current is the newest counted value (level or rate); NaN-free: 0
	// when no points counted.
	Current    float64 `json:"current"`
	Attainment float64 `json:"attainment"`
	BurnRate   float64 `json:"burn_rate"`
	Met        bool    `json:"met"`
}

// EvaluateLive runs each live objective over the scraper's retained
// points. Invalid specs error rather than silently skipping.
func (s *Scraper) EvaluateLive(slos []LiveSLO) ([]LiveStatus, error) {
	out := make([]LiveStatus, 0, len(slos))
	for _, l := range slos {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		st := LiveStatus{SLO: l}
		vals := s.sloValues(l)
		for _, v := range vals {
			st.Points++
			good := v >= l.Goal
			if l.Op == "<=" {
				good = v <= l.Goal
			}
			if good {
				st.Good++
			}
		}
		if n := len(vals); n > 0 {
			st.Current = vals[n-1]
		}
		st.Attainment = 1
		if st.Points > 0 {
			st.Attainment = float64(st.Good) / float64(st.Points)
		}
		st.BurnRate = burnRate(st.Attainment, l.Target)
		st.Met = st.Attainment >= l.Target
		out = append(out, st)
	}
	return out, nil
}

// sloValues extracts the values an objective judges: point levels, or
// consecutive-pair rates for Rate objectives (reset pairs skipped).
func (s *Scraper) sloValues(l LiveSLO) []float64 {
	pts := s.Points(l.Sample)
	if !l.Rate {
		out := make([]float64, len(pts))
		for i, p := range pts {
			out[i] = p.Value
		}
		return out
	}
	var out []float64
	for i := 1; i < len(pts); i++ {
		dt := pts[i].UnixMilli - pts[i-1].UnixMilli
		dv := pts[i].Value - pts[i-1].Value
		if dt <= 0 || dv < 0 {
			continue
		}
		out = append(out, dv/(float64(dt)/1000))
	}
	return out
}

// LiveServiceSLOs mirrors ServiceSLOs onto the live exposition the
// rmd service publishes: decision tail latency from the summary's p99
// sample, throughput from the decisions counter's rate, and the
// breaker staying closed (state 0). The throughput target matches the
// stored objective's floor; the watch shows burn the moment the
// service dips, instead of after the next rmload run is recorded.
func LiveServiceSLOs() []LiveSLO {
	return []LiveSLO{
		{
			Name:   "live-decision-p99",
			Sample: `rmserver_decision_latency_ns{quantile="0.99"}`,
			Op:     "<=", Goal: 1e6,
			Target: 0.95,
		},
		{
			Name:   "live-throughput",
			Sample: "rmserver_shard_decisions_total",
			Rate:   true,
			Op:     ">=", Goal: 1e5,
			Target: 0.9,
		},
		{
			Name:   "live-breaker-closed",
			Sample: "rmserver_breaker_state",
			Op:     "<=", Goal: 0,
			Target: 0.99,
		},
	}
}
