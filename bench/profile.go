package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers are the per-layer CPU attribution buckets, named after the
// repository's modules. "gc" takes every sample with no layer frame on
// its stack: the garbage collector, the scheduler, and the profiler.
var layers = []string{
	"sim", "noc", "dram", "cache", "memguard", "mpam", "audit", "netcalc",
	"telemetry", "core", "sweep", "rmserver", "wtrace", "http", "json", "gc",
}

// internalLayer folds internal packages that are not layers of their
// own into the layer that owns them.
var internalLayer = map[string]string{
	"dsu":       "cache",
	"trace":     "core",
	"admission": "rmserver",
	"obs":       "telemetry",
}

// layerOf maps one pprof frame (a fully qualified function name) to its
// layer, or "" when the frame belongs to no layer (the runtime and the
// rest of the standard library).
func layerOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "net/http", "net", "internal/poll", "syscall":
		return "http"
	case "encoding/json":
		return "json"
	}
	name, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	if l, ok := internalLayer[name]; ok {
		return l
	}
	for _, l := range layers {
		if l == name {
			return l
		}
	}
	return "core"
}

// parseTraces reads the output of `go tool pprof -traces` and charges
// each sample to the innermost frame of its stack that belongs to a
// layer ("gc" when none does). It returns CPU time per layer.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	self := make(map[string]time.Duration)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var (
		value   time.Duration
		inStack bool
		charged bool
	)
	flush := func() {
		if inStack && !charged {
			self["gc"] += value
		}
		inStack, charged = false, false
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header: File, Type, Duration, ...
		}
		frame := strings.TrimSpace(line)
		if frame == "" {
			continue
		}
		if !inStack {
			// Sample labels ("key:  value") precede the stack, whose
			// first line carries the sample value.
			fields := strings.Fields(frame)
			if strings.HasSuffix(fields[0], ":") {
				continue
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad stack head %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q: %w", fields[0], err)
			}
			value, inStack = d, true
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		if charged {
			continue
		}
		if l := layerOf(frame); l != "" {
			self[l] += value
			charged = true
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	return self, nil
}

// attribute runs `go tool pprof -traces` over CPU profiles (merged) and
// returns CPU time per layer.
func attribute(ctx context.Context, profiles ...string) (map[string]time.Duration, error) {
	args := append([]string{"tool", "pprof", "-traces"}, profiles...)
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTraces(&out)
}

// layerMetrics turns per-layer CPU time into the "<layer>.cpu_pct"
// shares plus the total CPU per op, and the closure ratio: sampled CPU
// over the wall time of the profiled region times the threads that
// could run it. A sequential run that is fully accounted for reads 1.
func layerMetrics(self map[string]time.Duration, ops int, threads int, wall time.Duration, into map[string]float64) {
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range layers {
		into[l+".cpu_pct"] = 0
		if total > 0 {
			into[l+".cpu_pct"] = 100 * float64(self[l]) / float64(total)
		}
	}
	if ops > 0 {
		into["trace.cpu_ms_per_op"] = ms(total) / float64(ops)
	}
	into["trace.closure"] = closure(total, threads, wall)
}

// closure is sampled CPU / (threads × wall).
func closure(cpu time.Duration, threads int, wall time.Duration) float64 {
	if wall <= 0 || threads <= 0 {
		return 0
	}
	return float64(cpu) / (float64(threads) * float64(wall))
}
