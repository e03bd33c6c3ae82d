package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rmdProc is one running rmd daemon.
type rmdProc struct {
	cmd  *exec.Cmd
	addr string // host:port it serves on

	mu     sync.Mutex
	output []string      // stdout lines
	eof    chan struct{} // closed once stdout is drained
	exited bool
}

// startRMD spawns rmd on an ephemeral loopback port, parses the address
// from its "serving on" line, and returns once /healthz answers 200,
// with the time that took.
func startRMD(ctx context.Context, bin string, args ...string) (*rmdProc, time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	// The daemon must not outlive a benchmark that dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rmd: %w", err)
	}
	r := &rmdProc{cmd: cmd, eof: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(r.eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			r.mu.Lock()
			r.output = append(r.output, line)
			r.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "rmd: serving on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case r.addr = <-addrc:
	case <-r.eof:
		r.kill()
		return nil, 0, fmt.Errorf("rmd exited before serving: %s", r.log())
	case <-time.After(10 * time.Second):
		r.kill()
		return nil, 0, fmt.Errorf("rmd printed no serving line within 10s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(r.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			r.kill()
			return nil, 0, fmt.Errorf("rmd at %s not healthy: %v", r.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *rmdProc) url(path string) string { return "http://" + r.addr + path }

func (r *rmdProc) log() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return strings.Join(r.output, "\n")
}

// stop sends SIGTERM and requires the daemon to drain cleanly.
func (r *rmdProc) stop() error {
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		r.kill()
		return fmt.Errorf("signal rmd: %w", err)
	}
	select {
	case <-r.eof:
	case <-time.After(15 * time.Second):
		r.kill()
		return fmt.Errorf("rmd did not exit within 15s of SIGTERM")
	}
	err := r.cmd.Wait()
	r.exited = true
	if err != nil {
		return fmt.Errorf("rmd: %w: %s", err, r.log())
	}
	if !strings.Contains(r.log(), "drained cleanly") {
		return fmt.Errorf("rmd did not drain cleanly: %s", r.log())
	}
	return nil
}

// kill ends the daemon unconditionally and waits for it; a no-op once
// it has exited.
func (r *rmdProc) kill() {
	if r.exited {
		return
	}
	r.cmd.Process.Kill()
	<-r.eof
	r.cmd.Wait()
	r.exited = true
}

// spawnRMD starts rmd n times and keeps the last one running; the
// others are stopped once healthy. It returns every start-up time, so
// setup_s is a median.
func spawnRMD(ctx context.Context, bin string, n int, args ...string) (*rmdProc, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		r, setup, err := startRMD(ctx, bin, args...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup)
		if i == n-1 {
			return r, setups, nil
		}
		// rmd installs its SIGTERM handler just after it starts serving;
		// a signal that arrives first kills it without a drain.
		time.Sleep(50 * time.Millisecond)
		if err := r.stop(); err != nil {
			return nil, nil, err
		}
	}
}
