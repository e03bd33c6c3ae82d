package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
)

// fingerprint is the checked output of a sim or sweep run. Simulated
// outputs are deterministic, so any change to them is a change to the
// model, not to the simulator's speed.
type fingerprint struct {
	CritIssued     uint64  `json:"crit_issued,omitempty"`
	CritMeanPS     int64   `json:"crit_mean_ps,omitempty"`
	CritP95PS      int64   `json:"crit_p95_ps,omitempty"`
	CritMaxPS      int64   `json:"crit_max_ps,omitempty"`
	RowHitRate     float64 `json:"row_hit_rate,omitempty"`
	CritViolations uint64  `json:"crit_violations,omitempty"`
	Violations     uint64  `json:"violations,omitempty"`
	// OpenMetrics hashes a sim run's full metrics dump; Aggregate
	// hashes a sweep's aggregate JSON.
	OpenMetrics string `json:"openmetrics_fnv64a,omitempty"`
	Aggregate   string `json:"aggregate_fnv64a,omitempty"`
}

// fingerprints.json holds each sim and sweep workload's fingerprint at
// seed 1 and the workload's default span.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

// committedSeed is the seed the committed fingerprints were taken at.
const committedSeed = 1

// committedFingerprint returns the committed fingerprint that a run at
// this seed must reproduce, or nil when there is none to compare with
// (another seed, or a shortened span).
func committedFingerprint(workload string, seed uint64, defaultSpan bool) (*fingerprint, error) {
	if seed != committedSeed || !defaultSpan {
		return nil, nil
	}
	var all map[string]fingerprint
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	// A missing entry reads as the zero fingerprint, which no run
	// matches: the mismatch report shows the entry to commit.
	fp := all[workload]
	return &fp, nil
}

// String renders the fingerprint as its fingerprints.json entry.
func (f fingerprint) String() string {
	b, _ := json.Marshal(f) // a struct of numbers and strings always marshals
	return string(b)
}

func fnv64a(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return strconv.FormatUint(h.Sum64(), 16)
}

// omValue returns the first sample of an unlabeled metric in an
// OpenMetrics dump, 0 when absent.
func omValue(om []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(om))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), name+" ")
		f := strings.Fields(rest)
		if !ok || len(f) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}

// peakRSS returns a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%d/status", pid)
}
