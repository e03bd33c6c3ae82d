// Package rmserver is the admission-control service plane: a
// network-facing front for a fleet of Resource Manager instances, the
// online half of the paper's Section V architecture. Where
// internal/admission runs the RM protocol inside the simulated NoC,
// rmserver runs the same analytic admission decision (Network-Calculus
// delay bounds, Section IV-A, via internal/netcalc) as a service:
// register/withdraw/mode-change requests arrive over HTTP, platforms
// are partitioned onto shards by consistent hashing, and each shard is
// one single-goroutine RM loop — so every platform's decision sequence
// is processed in arrival order, deterministically, exactly like the
// simulated RM serializes activations and terminations.
//
// The plane is built for overload, not just load:
//
//   - per-shard bounded queues: a full shard sheds the work with an
//     explicit throttle (HTTP 429 + Retry-After), never by queueing
//     without bound;
//   - a circuit breaker watching the throttle rate: sustained overload
//     flips the service to reject-by-default at the front door
//     (immediate 429s without parsing or enqueueing), with a
//     half-open probe phase to recover;
//   - batching: a batch request crosses the shard boundary once per
//     shard, so per-decision overhead amortizes — the path that
//     reaches millions of decisions per second;
//   - graceful drain: Drain() completes every enqueued decision before
//     the loops exit, so SIGTERM drops no accepted work.
//
// Observability reuses the existing planes: per-endpoint latency
// histograms and decision counters live in a telemetry.Registry
// (scraped as OpenMetrics via audit.Server), and load harnesses
// persist session records into the internal/obs store where the SLO
// engine (obs.ServiceSLOs) and regression sentinel judge them.
package rmserver

import (
	"fmt"
	"time"

	"repro/internal/admission"
)

// OpKind enumerates the service's decision operations.
type OpKind uint8

// The three operations of the service API. Register and Withdraw are
// the paper's actMsg/terMsg; ModeChange reconfigures a platform's
// policy envelope online (budget, criticality guarantees, service
// latency), revalidating every active application before committing.
const (
	OpRegister OpKind = iota
	OpWithdraw
	OpModeChange
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRegister:
		return "register"
	case OpWithdraw:
		return "withdraw"
	case OpModeChange:
		return "modechange"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one decision request. Platform routes it to a shard; the rest
// is the operation payload.
type Op struct {
	Kind     OpKind
	Platform string
	App      string
	Crit     admission.Criticality
	// BurstBytes/DeadlineNS declare the app's traffic contract and QoS
	// target (register only). DeadlineNS == 0 registers a best-effort
	// app with no analytic requirement.
	BurstBytes float64
	DeadlineNS float64
	// Spec is the mode-change payload (OpModeChange only).
	Spec *PlatformSpec
}

// requirement is the op's analytic contract as the admission decider
// takes it.
func (op *Op) requirement() admission.Requirement {
	return admission.Requirement{BurstBytes: op.BurstBytes, DeadlineNS: op.DeadlineNS}
}

// Decision is one operation's outcome.
type Decision struct {
	// OK reports the operation succeeded: admitted (register), removed
	// (withdraw), committed (mode change).
	OK bool `json:"ok"`
	// Mode is the platform's mode after the operation — its number of
	// active applications, the paper's mode definition.
	Mode int `json:"mode"`
	// RateBytesPerNS is the injection rate assigned to the app by the
	// platform's policy (register only).
	RateBytesPerNS float64 `json:"rate_bytes_per_ns,omitempty"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
	// Throttled marks an operation shed by backpressure before any
	// shard saw it; OK is false and the client should retry later.
	Throttled bool `json:"throttled,omitempty"`
}

// PlatformSpec is a platform's policy envelope: how the total budget
// is shared (the paper's symmetric/non-symmetric guarantee modes) and
// the fixed latency of the platform's service path (NoC traversal +
// DRAM worst-case delay), which the analytic bound folds in.
type PlatformSpec struct {
	// Policy is "symmetric" or "non-symmetric".
	Policy string `json:"policy"`
	// TotalBytesPerNS is the platform's injection budget.
	TotalBytesPerNS float64 `json:"total_bytes_per_ns"`
	// CriticalBytesPerNS is the guaranteed per-app rate for critical
	// apps (non-symmetric policy).
	CriticalBytesPerNS float64 `json:"critical_bytes_per_ns,omitempty"`
	// FloorBytesPerNS keeps best-effort apps from starving entirely
	// (non-symmetric policy).
	FloorBytesPerNS float64 `json:"floor_bytes_per_ns,omitempty"`
	// ServiceLatencyNS is the fixed latency of the platform's service
	// curve (rate-latency server at the assigned rate).
	ServiceLatencyNS float64 `json:"service_latency_ns"`
	// MaxApps caps the platform's mode (0 = uncapped).
	MaxApps int `json:"max_apps,omitempty"`
}

// Validate checks the spec.
func (p PlatformSpec) Validate() error {
	switch p.Policy {
	case "symmetric", "non-symmetric":
	default:
		return fmt.Errorf("rmserver: unknown policy %q", p.Policy)
	}
	if p.TotalBytesPerNS <= 0 {
		return fmt.Errorf("rmserver: platform budget must be positive")
	}
	if p.ServiceLatencyNS < 0 {
		return fmt.Errorf("rmserver: negative service latency")
	}
	if p.Policy == "non-symmetric" && p.CriticalBytesPerNS <= 0 {
		return fmt.Errorf("rmserver: non-symmetric policy needs a critical rate")
	}
	return nil
}

// ratePolicy is the admission rate policy the spec describes.
func (p PlatformSpec) ratePolicy() admission.RatePolicy {
	if p.Policy == "non-symmetric" {
		return admission.NonSymmetric{
			TotalBytesPerNS:    p.TotalBytesPerNS,
			CriticalBytesPerNS: p.CriticalBytesPerNS,
			FloorBytesPerNS:    p.FloorBytesPerNS,
		}
	}
	return admission.Symmetric{TotalBytesPerNS: p.TotalBytesPerNS}
}

// Config parameterizes a Fleet.
type Config struct {
	// Shards is the number of RM loops (default 4).
	Shards int
	// QueueDepth bounds each shard's pending batch queue (default 64).
	QueueDepth int
	// MaxBatch caps the operations accepted in one batch request
	// (default 8192).
	MaxBatch int
	// DefaultPlatform configures platforms created implicitly by their
	// first register (zero value: symmetric, budget 1 B/ns, 500 ns
	// service latency).
	DefaultPlatform PlatformSpec
	// Breaker tunes the overload circuit breaker.
	Breaker BreakerConfig

	// DecisionDelay adds an artificial sleep to every decision inside
	// the shard loop. It exists for overload tests, which use it to make
	// shard queues fill deterministically on arbitrarily fast machines.
	// Zero (the default) in production; no command-line flag sets it.
	DecisionDelay time.Duration
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8192
	}
	if c.DefaultPlatform == (PlatformSpec{}) {
		c.DefaultPlatform = PlatformSpec{
			Policy:           "symmetric",
			TotalBytesPerNS:  1.0,
			ServiceLatencyNS: 500,
		}
	}
	return c
}
