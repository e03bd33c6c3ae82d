package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// -all parallelizes across scenarios, so kernel partitions on top of
// it are refused before anything runs.
func TestAllRejectsParallel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-all", "-parallel", "2", "-ms", "0.001"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-parallel applies to a single scenario") {
		t.Fatalf("socsim -all -parallel 2: err = %v, want the single-scenario refusal", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("refused run wrote stdout:\n%s", stdout.String())
	}
}

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
