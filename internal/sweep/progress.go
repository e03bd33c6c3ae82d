package sweep

import "sync"

// ProgressSnapshot is a point-in-time view of a sweep's completion,
// JSON-shaped for the live /progress endpoint.
type ProgressSnapshot struct {
	Total      int    `json:"total"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Violations uint64 `json:"violations"`
	// LastLabel is the configuration of the most recently finished run
	// (completion order, which varies with scheduling — informational
	// only, never part of deterministic output).
	LastLabel string `json:"last_label,omitempty"`
}

// Progress tracks per-run sweep completion. Its Observe method is the
// intended RunObserved callback; Observe and Snapshot are safe for
// concurrent use, so a live endpoint can read Snapshot while workers
// report.
type Progress struct {
	mu         sync.Mutex
	total      int
	done       int
	failed     int
	violations uint64
	lastLabel  string
}

// NewProgress builds a tracker for total runs.
func NewProgress(total int) *Progress {
	return &Progress{total: total}
}

// Observe folds one finished run into the tracker.
func (p *Progress) Observe(r Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if r.Failed() {
		p.failed++
	}
	p.violations += r.Violations
	p.lastLabel = r.Spec.Label
}

// Snapshot returns the current completion state.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProgressSnapshot{
		Total:      p.total,
		Done:       p.done,
		Failed:     p.failed,
		Violations: p.violations,
		LastLabel:  p.lastLabel,
	}
}
