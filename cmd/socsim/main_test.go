package main

import (
	"bytes"
	"strings"
	"testing"
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
