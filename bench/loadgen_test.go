package main

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fakeClock advances only when the sender sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// TestOpenLoopDueTimeLatency checks that latency runs from the due
// time: a stalled request delays the requests queued behind it, and
// each of them counts the wait as latency and lateness.
func TestOpenLoopDueTimeLatency(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	dues := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 10 * ms}
	service := []time.Duration{ms / 2, 3 * ms, ms / 2, ms / 2, ms / 2} // request 1 stalls
	i := 0
	got := openLoop(clk, start, dues, func() error {
		clk.now = clk.now.Add(service[i])
		i++
		return nil
	})
	want := []sample{
		{due: 0, latency: ms / 2},
		{due: 1 * ms, latency: 3 * ms},
		{due: 2 * ms, latency: 5 * ms / 2, late: 2 * ms}, // starts when request 1 returns at 4 ms
		{due: 3 * ms, latency: 2 * ms, late: 3 * ms / 2},
		{due: 10 * ms, latency: ms / 2}, // the backlog has cleared
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("request %d: got %+v, want %+v", k, got[k], want[k])
		}
	}
}

// TestFailuresAreInfinite checks that a failed request enters the
// latency distribution as +Inf, so it misses any latency limit.
func TestFailuresAreInfinite(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	dues := make([]time.Duration, 100)
	for k := range dues {
		dues[k] = time.Duration(k) * time.Millisecond
	}
	n := 0
	got := openLoop(clk, clk.now, dues, func() error {
		n++
		clk.now = clk.now.Add(100 * time.Microsecond)
		if n > 98 {
			return errors.New("refused")
		}
		return nil
	})
	lat := latencyMS(got)
	if !math.IsInf(lat[99], 1) || !got[99].failed {
		t.Fatalf("failed request latency = %v, want +Inf", lat[99])
	}
	if p50 := quantile(lat, 0.5); p50 != 0.1 {
		t.Errorf("p50 = %v ms, want 0.1", p50)
	}
	if p99 := quantile(lat, 0.99); !math.IsInf(p99, 1) {
		t.Errorf("p99 = %v with 2%% failures, want +Inf", p99)
	}
}

func TestPoissonDues(t *testing.T) {
	a := poissonDues(rand.New(rand.NewSource(1)), 1000, time.Second)
	b := poissonDues(rand.New(rand.NewSource(1)), 1000, time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("the same seed must give the same arrivals")
	}
	if len(a) < 900 || len(a) > 1100 {
		t.Errorf("%d arrivals in 1 s at 1000/s", len(a))
	}
	for k := 1; k < len(a); k++ {
		if a[k] < a[k-1] || a[k] >= time.Second {
			t.Fatalf("due %d = %v out of order or past the phase", k, a[k])
		}
	}
}
