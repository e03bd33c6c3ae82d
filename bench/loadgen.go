package main

import (
	"math"
	"math/rand"
	"syscall"
	"time"
)

// clock is the time source of the open-loop sender; tests drive a fake
// one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the thread in nanosleep: time.Sleep wakes up to a
// millisecond late on Linux, which would swamp sub-millisecond request
// latencies measured from the due time, while nanosleep overshoots by
// about the kernel's 50 µs timer slack.
func (wallClock) SleepUntil(t time.Time) {
	// Signals (the runtime's preemption among them) end a nanosleep
	// early with EINTR; sleep again for what remains.
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// sample is one open-loop request: when it was due (from the phase
// start), its latency measured from then, how late the sender started
// it, and whether it failed.
type sample struct {
	due     time.Duration
	latency time.Duration
	late    time.Duration
	failed  bool
}

// poissonDues returns the due times, as offsets from the phase start,
// of Poisson arrivals at rate per second over d.
func poissonDues(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return dues
		}
		dues = append(dues, due)
	}
}

// openLoop sends one request per due time on a single connection. A
// request starts at its due time, or as soon as the previous request
// returns when that is later. Latency runs from the due time, so a
// stalled request delays every request queued behind it and each of
// them counts the wait.
func openLoop(clk clock, start time.Time, dues []time.Duration, send func() error) []sample {
	out := make([]sample, len(dues))
	for i, due := range dues {
		at := start.Add(due)
		clk.SleepUntil(at)
		sent := clk.Now()
		err := send()
		out[i] = sample{due: due, latency: clk.Now().Sub(at), late: sent.Sub(at), failed: err != nil}
	}
	return out
}

// latencyMS returns the samples' latencies in milliseconds with every
// failed request as +Inf: a failure misses any latency limit.
func latencyMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency)
		if s.failed {
			out[i] = math.Inf(1)
		}
	}
	return out
}
