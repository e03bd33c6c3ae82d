package admission

import (
	"fmt"
	"math"
)

// Requirement is an application's declared traffic contract and QoS
// target, used by the analytic admission test.
type Requirement struct {
	// BurstBytes is the token-bucket burst of the application's
	// traffic (its rate is whatever the RM assigns).
	BurstBytes float64
	// DeadlineNS is the maximum tolerable per-transmission delay. A
	// non-positive deadline declares no analytic requirement.
	DeadlineNS float64
}

// Validate rejects a contract the bound computation cannot take: a
// burst or deadline that is negative, infinite or NaN.
func (r Requirement) Validate() error {
	if !(r.BurstBytes >= 0) || math.IsInf(r.BurstBytes, 1) {
		return fmt.Errorf("burst %v is negative or not finite", r.BurstBytes)
	}
	if !(r.DeadlineNS >= 0) || math.IsInf(r.DeadlineNS, 1) {
		return fmt.Errorf("deadline %v is negative or not finite", r.DeadlineNS)
	}
	return nil
}

// Member is one application of a mode as the admission test sees it
// (DeadlineNS <= 0: best effort, admitted unconditionally).
type Member struct {
	Name string
	Crit Criticality
	Requirement
}

// Decider is the Section V admission decision, running the Section
// IV-A bound computation online: every contracted member's (burst,
// assigned rate) token bucket must meet its deadline through a
// rate-latency server of fixed latency (NoC path plus DRAM WCD) at
// that rate. The delay bound of that pair is the closed form
// latency + burst/rate, bit-identical to netcalc.DelayBound over the
// same two curves (pinned by TestDelayBoundCheckMatchesUncached). Not
// safe for concurrent use: the simulated RM and each rmserver platform
// own theirs from one goroutine.
type Decider struct {
	policy    RatePolicy
	latencyNS float64
}

// NewDecider builds a decider for a rate policy and service latency.
func NewDecider(policy RatePolicy, latencyNS float64) *Decider {
	return &Decider{policy: policy, latencyNS: latencyNS}
}

// SetService swaps the rate policy and the service latency (an online
// mode change).
func (d *Decider) SetService(policy RatePolicy, latencyNS float64) {
	d.policy, d.latencyNS = policy, latencyNS
}

// Rate returns the rate the policy assigns to an application of class
// c in a mode of `mode` applications, `critical` of them critical.
func (d *Decider) Rate(mode, critical int, c Criticality) float64 {
	critRate, beRate := d.policy.ClassRates(mode, critical)
	return classRate(c, critRate, beRate)
}

// Check runs the admission test over a mode: members is the complete
// post-decision active set in name order, critical the number of
// Critical members. It returns "" when every contracted member meets
// its deadline, else the reason naming the first member (in order)
// that would receive no bandwidth or miss its deadline.
func (d *Decider) Check(members []Member, critical int) string {
	critRate, beRate := d.policy.ClassRates(len(members), critical)
	for i := range members {
		m := &members[i]
		if m.DeadlineNS <= 0 {
			continue
		}
		rate := classRate(m.Crit, critRate, beRate)
		if rate <= 0 {
			return fmt.Sprintf("%s would receive no bandwidth", m.Name)
		}
		if b := d.latencyNS + m.BurstBytes/rate; math.IsInf(b, 1) || b > m.DeadlineNS {
			return fmt.Sprintf("%s delay bound %.1f ns exceeds deadline %.1f ns", m.Name, b, m.DeadlineNS)
		}
	}
	return ""
}

// SetAdmissionCheck installs the analytic admission test the RM runs
// before every activation: each application with a Requirement in reqs
// must keep its delay bound, through a rate-latency service of
// latencyNS at its assigned rate, within its deadline. Applications
// without one are admitted unconditionally (best effort). A nil reqs
// removes the test.
func (s *System) SetAdmissionCheck(reqs map[string]Requirement, latencyNS float64) {
	s.reqs = reqs
	s.decider = nil
	if reqs != nil {
		s.decider = NewDecider(s.policy, latencyNS)
	}
}
