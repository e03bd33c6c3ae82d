package admission

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netcalc"
)

// TestEventQueueFIFO pins FIFO order through the head-indexed queue's
// compaction path: keep the queue non-empty for long enough that the
// dead-prefix compaction triggers and check nothing is lost or
// reordered.
func TestEventQueueFIFO(t *testing.T) {
	var q eventQueue
	next, want := 0, 0
	push := func() {
		q.push(event{app: AppRef{Name: fmt.Sprintf("app%d", next)}})
		next++
	}
	pop := func() {
		ev := q.pop()
		if got := fmt.Sprintf("app%d", want); ev.app.Name != got {
			t.Fatalf("pop = %q, want %q", ev.app.Name, got)
		}
		want++
	}
	// Phase 1: grow a backlog, then drain past the compaction threshold
	// (head > 32 with a live tail).
	for i := 0; i < 100; i++ {
		push()
	}
	for i := 0; i < 60; i++ {
		pop()
	}
	// Phase 2: steady churn with a standing backlog.
	for i := 0; i < 500; i++ {
		push()
		pop()
	}
	// Drain.
	for !q.empty() {
		pop()
	}
	if want != next {
		t.Fatalf("popped %d events, pushed %d", want, next)
	}
}

// TestEventQueueAllocFlat checks the satellite fix: a long
// activation/termination churn cycle through the RM's pending queue
// must not reallocate per event. The old `pending = pending[1:]`
// reslice kept the dead prefix alive so every cycle grew the backing
// array; the head-indexed queue reuses it.
func TestEventQueueAllocFlat(t *testing.T) {
	var q eventQueue
	ev := event{typ: ActMsg, app: AppRef{Name: "app"}}
	// Warm up: let the buffer reach its steady-state capacity.
	for i := 0; i < 64; i++ {
		q.push(ev)
		q.pop()
	}
	avg := testing.AllocsPerRun(1000, func() {
		q.push(ev)
		q.pop()
	})
	if avg != 0 {
		t.Fatalf("push/pop churn allocates %.2f allocs/op, want 0", avg)
	}
}

// TestDelayBoundCheckIncremental verifies the decider's bound memo:
// re-validating a mode whose rates did not change must not reach the
// netcalc cache at all, members sharing a (burst, rate) pair share one
// computation, a rate change recomputes only the pairs it moved, and a
// new service latency invalidates the memo.
func TestDelayBoundCheckIncremental(t *testing.T) {
	cache := netcalc.NewCache(0)
	lookups := func() uint64 {
		st := cache.Stats()
		return st.Hits + st.Misses
	}
	d := NewDecider(Symmetric{TotalBytesPerNS: 1.5}, 100, cache)
	req := Requirement{BurstBytes: 64, DeadlineNS: 1e6}
	mode := []Member{
		{Name: "a", Requirement: req},
		{Name: "b", Requirement: req},
		{Name: "c", Requirement: Requirement{BurstBytes: 128, DeadlineNS: 1e6}},
	}
	if reason := d.Check(mode, 0); reason != "" {
		t.Fatalf("first decision rejected: %s", reason)
	}
	// a and b share (64, 0.5); c is (128, 0.5).
	if got := lookups(); got != 2 {
		t.Fatalf("first decision computed %d bounds, want 2", got)
	}

	// Same mode, same rates: a fresh decision must be free.
	if reason := d.Check(mode, 0); reason != "" {
		t.Fatalf("repeat decision rejected: %s", reason)
	}
	if got := lookups(); got != 2 {
		t.Fatalf("repeat decision recomputed: %d lookups", got)
	}

	// Dropping c moves the rate to 0.75: only (64, 0.75) is new.
	if reason := d.Check(mode[:2], 0); reason != "" {
		t.Fatalf("rate-change decision rejected: %s", reason)
	}
	if got := lookups(); got != 3 {
		t.Fatalf("rate-change decision: %d lookups, want 3", got)
	}

	// A policy change that lands on already-seen rates stays free.
	d.SetService(Symmetric{TotalBytesPerNS: 1}, 100)
	if reason := d.Check(mode[:2], 0); reason != "" {
		t.Fatalf("policy-change decision rejected: %s", reason)
	}
	if got := lookups(); got != 3 {
		t.Fatalf("policy change onto a memoized rate recomputed: %d lookups", got)
	}

	// A new latency invalidates every memoized bound.
	d.SetService(Symmetric{TotalBytesPerNS: 1}, 200)
	if reason := d.Check(mode[:2], 0); reason != "" {
		t.Fatalf("latency-change decision rejected: %s", reason)
	}
	if got := lookups(); got != 4 {
		t.Fatalf("latency change kept a stale bound: %d lookups, want 4", got)
	}
}

// TestDelayBoundCheckMatchesUncached pins bit-identical decisions: the
// memoized decider must agree with a from-scratch evaluation of the
// same bounds on every step of a sweep across the feasibility
// boundary, including rejections and the violator it names.
func TestDelayBoundCheckMatchesUncached(t *testing.T) {
	const latencyNS = 150
	mode := []Member{
		{Name: "a", Crit: Critical, Requirement: Requirement{BurstBytes: 256, DeadlineNS: 2200}},
		{Name: "b", Requirement: Requirement{BurstBytes: 512, DeadlineNS: 2400}},
		{Name: "c", Requirement: Requirement{BurstBytes: 1024, DeadlineNS: 2600}},
	}
	ref := func(p RatePolicy, members []Member, critical int) string {
		critRate, beRate := p.ClassRates(len(members), critical)
		for _, m := range members {
			rate := classRate(m.Crit, critRate, beRate)
			alpha := netcalc.TokenBucket(m.BurstBytes, rate)
			if d := netcalc.DelayBound(alpha, netcalc.RateLatency(rate, latencyNS)); d > m.DeadlineNS {
				return m.Name
			}
		}
		return ""
	}
	d := NewDecider(Symmetric{TotalBytesPerNS: 1}, latencyNS, nil)
	// Sweep the budget across the feasibility boundary in both
	// directions; acceptance must flip at exactly the same steps.
	for step := 0; step < 40; step++ {
		p := Symmetric{TotalBytesPerNS: 0.4 + 0.1*float64(step%20)}
		d.SetService(p, latencyNS)
		members := mode[:1+step%3]
		critical := 1
		got, want := d.Check(members, critical), ref(p, members, critical)
		if (got == "") != (want == "") || (want != "" && !strings.HasPrefix(got, want+" ")) {
			t.Fatalf("step %d (budget %.2f, %d apps): decider %q, reference violator %q",
				step, p.TotalBytesPerNS, len(members), got, want)
		}
	}
}
