package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// More partitions than the clustered platform can cut are clamped, and
// the effective count goes to stderr so stdout stays identical across
// -parallel values. A 1 ns horizon builds the 256-app platform without
// simulating it for long.
func TestParallelClampWarning(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-mesh", "16x16", "-clusters", "8", "-channels", "8", "-parallel", "64", "-ms", "0.000001"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("socsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	for _, want := range []string{"clamped to 8 partitions", "event kernel running 8 partitions"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	if strings.Contains(stdout.String(), "partitions") {
		t.Errorf("partition count leaked into stdout:\n%s", stdout.String())
	}
}

// A background job of a non-interactive shell starts with SIGINT
// ignored. With -listen, socsim installs its handler before the run,
// so a SIGINT sent mid-run ends the run at the next chunk and skips
// the linger, instead of being lost while socsim lingers until
// SIGTERM. The built binary is exec'd by a shell that has run
// `trap "" INT`, which starts it with SIGINT ignored as such a job
// does.
func TestListenSIGINTDuringRun(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh to start socsim with SIGINT ignored")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build socsim")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "socsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	errPath := filepath.Join(dir, "stderr")
	errFile, err := os.Create(errPath)
	if err != nil {
		t.Fatal(err)
	}
	defer errFile.Close()
	// 50 simulated ms take seconds here, in 64 chunks.
	cmd := exec.Command(sh, "-c", `trap '' INT; exec "$0" "$@"`,
		bin, "-ms", "50", "-hogs", "3", "-listen", "127.0.0.1:0", "-linger")
	cmd.Stderr = errFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	stderr := func() string { b, _ := os.ReadFile(errPath); return string(b) }
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(stderr(), "live endpoint"); {
		select {
		case <-exited:
			t.Fatalf("socsim exited before serving: %v\n%s", waitErr, stderr())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live endpoint after 30 s:\n%s", stderr())
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatalf("socsim still running 10 s after SIGINT:\n%s", stderr())
	}
	var exit *exec.ExitError
	if !errors.As(waitErr, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr(), "socsim: interrupt at ") {
		t.Fatalf("exit = %v, want status 1 for a run cut short by SIGINT:\n%s", waitErr, stderr())
	}
}

// endpointWatch is a run's stderr: it keeps what run writes and hands
// the live endpoint's address to addr as soon as run announces it.
type endpointWatch struct {
	addr chan string // buffered 1

	mu   sync.Mutex
	buf  bytes.Buffer
	sent bool
}

func (w *endpointWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if _, rest, ok := strings.Cut(w.buf.String(), "live endpoint on http://"); ok && !w.sent {
		addr, _, _ := strings.Cut(rest, " ")
		w.addr <- addr
		w.sent = true
	}
	return len(p), nil
}

// Scrapes render on read, between run chunks: a run scraped in a
// tight loop must print and dump exactly what an unscraped run without
// -listen does, and every scrape it answers must be well-formed.
func TestScrapesLeaveRunUnchanged(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "42", "-dsu", "-memguard", "-audit"},
		{"-mesh", "16x16", "-apps-per-tile", "2", "-ms", "0.05", "-audit"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			dir := t.TempDir()
			quietPath := filepath.Join(dir, "quiet.om")
			var quietOut bytes.Buffer
			if err := run(append(args, "-metrics", quietPath), &quietOut, io.Discard); err != nil {
				t.Fatal(err)
			}

			stderr := &endpointWatch{addr: make(chan string, 1)}
			finished := make(chan struct{})
			scraped := make(chan [2]int, 1) // /metrics and /progress answers
			go func() {
				var n [2]int
				defer func() { scraped <- n }()
				var addr string
				select {
				case addr = <-stderr.addr:
				case <-finished:
					return
				}
				for {
					select {
					case <-finished:
						return
					default:
					}
					for i, path := range []string{"/metrics", "/progress"} {
						resp, err := http.Get("http://" + addr + path)
						if err != nil {
							return // the run is over and its endpoint closed
						}
						body, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("GET %s = %d, %v", path, resp.StatusCode, err)
							return
						}
						if !checkScrape(t, path, string(body)) {
							return
						}
						n[i]++
					}
				}
			}()
			livePath := filepath.Join(dir, "live.om")
			var liveOut bytes.Buffer
			err := run(append(args, "-metrics", livePath, "-listen", "127.0.0.1:0"), &liveOut, stderr)
			close(finished)
			n := <-scraped
			if err != nil {
				t.Fatal(err)
			}
			if n[0] == 0 || n[1] == 0 {
				t.Fatalf("the run answered %d /metrics and %d /progress scrapes, want some of each", n[0], n[1])
			}
			if !bytes.Equal(liveOut.Bytes(), quietOut.Bytes()) {
				t.Errorf("scraped run printed\n%s\nwant\n%s", liveOut.String(), quietOut.String())
			}
			live, _ := os.ReadFile(livePath)
			quiet, _ := os.ReadFile(quietPath)
			if len(quiet) == 0 || !bytes.Equal(live, quiet) {
				t.Errorf("scraped run's -metrics dump (%d bytes) differs from the unscraped one (%d bytes)", len(live), len(quiet))
			}
		})
	}
}

// checkScrape reports whether one answer is well-formed: every sample
// line of /metrics parses and the exposition ends in # EOF; /progress
// decodes with a simulated time within the horizon.
func checkScrape(t *testing.T, path, body string) bool {
	if path == "/progress" {
		var prog struct {
			SimTimeNS float64 `json:"sim_time_ns"`
			HorizonNS float64 `json:"horizon_ns"`
		}
		if err := json.Unmarshal([]byte(body), &prog); err != nil || prog.HorizonNS <= 0 || prog.SimTimeNS > prog.HorizonNS {
			t.Errorf("/progress = %q (%v)", body, err)
			return false
		}
		return true
	}
	if !strings.HasSuffix(body, "\n# EOF\n") {
		t.Errorf("/metrics does not end in # EOF: %q", body[max(0, len(body)-200):])
		return false
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := telemetry.ParseSample(line); err != nil {
			t.Errorf("/metrics: %v", err)
			return false
		}
	}
	return true
}
