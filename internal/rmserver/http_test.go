package rmserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func testService(t *testing.T, cfg Config) (*Fleet, *httptest.Server) {
	t.Helper()
	f := New(cfg, telemetry.NewRegistry())
	srv := httptest.NewServer(NewHandler(f))
	t.Cleanup(func() {
		srv.Close()
		f.Drain()
	})
	return f, srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

func TestHTTPRegisterWithdrawRoundTrip(t *testing.T) {
	_, srv := testService(t, Config{Shards: 2})

	resp, body := postJSON(t, srv.URL+"/v1/register",
		`{"platform":"ecu0","app":"vision","burst_bytes":64,"deadline_ns":1e6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var d Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Mode != 1 || d.RateBytesPerNS <= 0 {
		t.Fatalf("register decision %+v", d)
	}

	resp, body = postJSON(t, srv.URL+"/v1/withdraw", `{"platform":"ecu0","app":"vision"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("withdraw: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Mode != 0 {
		t.Fatalf("withdraw decision %+v", d)
	}
}

func TestHTTPModeChange(t *testing.T) {
	_, srv := testService(t, Config{Shards: 1})
	resp, body := postJSON(t, srv.URL+"/v1/modechange",
		`{"platform":"ecu0","spec":{"policy":"non-symmetric","total_bytes_per_ns":2,"critical_bytes_per_ns":0.5,"service_latency_ns":200}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("modechange: %d %s", resp.StatusCode, body)
	}
	var d Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.OK {
		t.Fatalf("modechange decision %+v", d)
	}
	// A critical register on the reconfigured platform gets the
	// guaranteed rate.
	resp, body = postJSON(t, srv.URL+"/v1/register",
		`{"platform":"ecu0","app":"brake","critical":true,"burst_bytes":32,"deadline_ns":1e6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.RateBytesPerNS != 0.5 {
		t.Fatalf("critical register on non-symmetric platform: %+v", d)
	}
}

func TestHTTPBatchCompactAndJSON(t *testing.T) {
	_, srv := testService(t, Config{Shards: 2})

	compact := "# comment\nr ecu0 a b 64 1000000\nr ecu0 b b 64 1000000\nw ecu0 a\n"
	resp, err := http.Post(srv.URL+"/v1/batch", OpsContentType, strings.NewReader(compact))
	if err != nil {
		t.Fatal(err)
	}
	var sum BatchSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sum.Ops != 3 || sum.Admitted != 3 || sum.Decisions != nil {
		t.Fatalf("compact batch: %d %+v", resp.StatusCode, sum)
	}

	jsonBatch := `{"ops":[
		{"kind":"register","platform":"ecu1","app":"x","burst_bytes":64,"deadline_ns":1e6},
		{"kind":"withdraw","platform":"ecu1","app":"x"}]}`
	resp, body := postJSON(t, srv.URL+"/v1/batch", jsonBatch)
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || sum.Ops != 2 || len(sum.Decisions) != 2 {
		t.Fatalf("json batch: %d %+v", resp.StatusCode, sum)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := testService(t, Config{Shards: 1, MaxBatch: 4})
	cases := []struct{ path, body string }{
		{"/v1/register", `{"app":"a"}`},                 // missing platform
		{"/v1/register", `not json`},                    //
		{"/v1/withdraw", `{"platform":"p"}`},            // missing app
		{"/v1/modechange", `{"platform":"p"}`},          // missing spec
		{"/v1/batch", `{"ops":[{"kind":"bogus"}]}`},     // unknown kind
		{"/v1/batch", `{"ops":[{},{},{},{},{},{},{}]}`}, // over MaxBatch
		// Contracts the bound computation cannot take.
		{"/v1/register", `{"platform":"p","app":"a","burst_bytes":-64,"deadline_ns":1000}`},
		{"/v1/register", `{"platform":"p","app":"a","burst_bytes":64,"deadline_ns":-1}`},
		{"/v1/register", `{"platform":"p","app":"a","burst_bytes":1e999,"deadline_ns":1000}`},
		{"/v1/batch", `{"ops":[{"kind":"register","platform":"p","app":"a","burst_bytes":-64,"deadline_ns":1000}]}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, srv.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: %d %s, want 400", c.path, c.body, resp.StatusCode, body)
		}
	}
	for _, body := range []string{"r p a b -64 1000\n", "r p a b 64 NaN\n", "r p a b +Inf 1000\n"} {
		resp, err := http.Post(srv.URL+"/v1/batch", OpsContentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("compact batch %q: %d, want 400", body, resp.StatusCode)
		}
	}
	// The service keeps deciding after the bad requests.
	resp, body := postJSON(t, srv.URL+"/v1/register", `{"platform":"p","app":"a","burst_bytes":64,"deadline_ns":1000}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("register after bad requests: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPOverloadBackpressure drives the service past its queue
// capacity and asserts the full overload story: clients see 429 with
// Retry-After, the fleet counts throttles, the breaker opens under the
// sustained throttle ratio, and an open breaker rejects at the front
// door.
func TestHTTPOverloadBackpressure(t *testing.T) {
	f, srv := testService(t, Config{
		Shards:        1,
		QueueDepth:    1,
		DecisionDelay: 2 * time.Millisecond,
		Breaker: BreakerConfig{
			Window:         time.Second,
			MinRequests:    4,
			TripRatio:      0.25,
			Cooldown:       time.Minute, // keep it open for the assertions
			HalfOpenProbes: 2,
		},
	})

	// 8 concurrent clients × sequential batches of 8 slow ops against a
	// single shard with queue depth 1: at most two batches are ever in
	// the system, the rest must be shed.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		got429    int
		gotRetry  int
		totalReqs int
	)
	deadline := time.Now().Add(2 * time.Second)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var sb strings.Builder
				for i := 0; i < 8; i++ {
					fmt.Fprintf(&sb, "r p0 c%dapp%d b 1 0\n", c, i)
				}
				resp, err := http.Post(srv.URL+"/v1/batch", OpsContentType, strings.NewReader(sb.String()))
				if err != nil {
					continue
				}
				resp.Body.Close()
				mu.Lock()
				totalReqs++
				if resp.StatusCode == http.StatusTooManyRequests {
					got429++
					if resp.Header.Get("Retry-After") != "" {
						gotRetry++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if got429 == 0 {
		t.Fatalf("no 429s across %d overload requests", totalReqs)
	}
	if gotRetry != got429 {
		t.Errorf("%d of %d 429s carried Retry-After", gotRetry, got429)
	}
	st := f.Snapshot()
	if st.Throttled == 0 {
		t.Error("fleet counted no throttled operations")
	}
	if st.BreakerOpens == 0 {
		t.Errorf("breaker never opened under sustained overload (state %s, %d reqs, %d 429s)",
			st.BreakerState, totalReqs, got429)
	}
	if st.BreakerState != "open" {
		t.Errorf("breaker state %q, want open (cooldown is one minute)", st.BreakerState)
	}

	// An open breaker rejects before the body is parsed: even a
	// malformed request gets 429, not 400.
	resp, _ := postJSON(t, srv.URL+"/v1/register", `garbage`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("open breaker returned %d, want 429 at the front door", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("front-door 429 missing Retry-After")
	}
}

// TestHTTPStats exercises /v1/stats end to end.
func TestHTTPStats(t *testing.T) {
	_, srv := testService(t, Config{Shards: 2})
	postJSON(t, srv.URL+"/v1/register", `{"platform":"p","app":"a","burst_bytes":1,"deadline_ns":1e6}`)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Decisions != 1 || st.BreakerState != "closed" {
		t.Fatalf("stats %+v", st)
	}
}

// TestOpenMetricsStrict renders the fleet's exposition and checks the
// properties `omlint -strict` enforces: every family has # HELP and
// # TYPE, and the body ends with # EOF.
func TestOpenMetricsStrict(t *testing.T) {
	f, srv := testService(t, Config{Shards: 2})
	postJSON(t, srv.URL+"/v1/register", `{"platform":"p","app":"a","burst_bytes":1,"deadline_ns":1e6}`)

	var sb strings.Builder
	if err := f.Registry().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	om := sb.String()
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatal("exposition missing # EOF")
	}
	help := map[string]bool{}
	for _, line := range strings.Split(om, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			help[strings.Fields(line)[2]] = true
		}
	}
	for _, line := range strings.Split(om, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			if strings.HasPrefix(fam, "rmserver_") && !help[fam] {
				t.Errorf("family %s has no # HELP line", fam)
			}
		}
	}
}
