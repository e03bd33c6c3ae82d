package rmserver

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/admission"
)

// platform is one admitted-set state machine, owned by exactly one
// shard goroutine (never locked — the shard loop serializes access,
// preserving the RM's "processed in arrival order" semantics). The
// admission decision itself is the admission.Decider the simulated RM
// runs; the platform keeps the sorted active set, the MaxApps cap and
// the mode-change rollback.
type platform struct {
	spec  PlatformSpec
	apps  []admission.Member // sorted by name
	crits int                // count of Critical members
	dec   *admission.Decider
}

// newPlatform builds an empty platform.
func newPlatform(spec PlatformSpec) *platform {
	return &platform{
		spec: spec,
		dec:  admission.NewDecider(spec.ratePolicy(), spec.ServiceLatencyNS),
	}
}

// find returns the index of app in the sorted active set and whether
// it is present.
func (p *platform) find(app string) (int, bool) {
	i := sort.Search(len(p.apps), func(i int) bool { return p.apps[i].Name >= app })
	return i, i < len(p.apps) && p.apps[i].Name == app
}

// remove drops the app at index i from the active set.
func (p *platform) remove(i int) {
	if p.apps[i].Crit == admission.Critical {
		p.crits--
	}
	p.apps = slices.Delete(p.apps, i, i+1)
}

// register admits or rejects one application: tentatively join the
// active set, run the analytic admission test over the post-admission
// rate assignment, and roll back on violation. Mirrors the simulated
// RM's activation path (rm.next's ActMsg case).
func (p *platform) register(op *Op) Decision {
	req := op.requirement()
	if err := req.Validate(); err != nil {
		return Decision{Mode: len(p.apps), Reason: err.Error()}
	}
	if p.spec.MaxApps > 0 && len(p.apps) >= p.spec.MaxApps {
		return Decision{Mode: len(p.apps), Reason: "platform full"}
	}
	i, dup := p.find(op.App)
	if dup {
		return Decision{Mode: len(p.apps), Reason: "duplicate registration"}
	}
	p.apps = slices.Insert(p.apps, i, admission.Member{Name: op.App, Crit: op.Crit, Requirement: req})
	if op.Crit == admission.Critical {
		p.crits++
	}
	if reason := p.dec.Check(p.apps, p.crits); reason != "" {
		// Reject: restore the previous mode.
		p.remove(i)
		return Decision{Mode: len(p.apps), Reason: reason}
	}
	return Decision{OK: true, Mode: len(p.apps), RateBytesPerNS: p.dec.Rate(len(p.apps), p.crits, op.Crit)}
}

// withdraw removes an application (the terMsg path). Unknown apps are
// rejected, matching the simulated RM's accounting.
func (p *platform) withdraw(op *Op) Decision {
	i, ok := p.find(op.App)
	if !ok {
		return Decision{Mode: len(p.apps), Reason: "not registered"}
	}
	p.remove(i)
	return Decision{OK: true, Mode: len(p.apps)}
}

// modeChange swaps the platform's policy envelope, revalidating every
// active application's bound under the new spec before committing; a
// violation rolls the spec back, leaving the previous mode intact —
// an online reconfiguration must not break admitted guarantees.
func (p *platform) modeChange(spec PlatformSpec) Decision {
	if err := spec.Validate(); err != nil {
		return Decision{Mode: len(p.apps), Reason: err.Error()}
	}
	if spec.MaxApps > 0 && len(p.apps) > spec.MaxApps {
		return Decision{Mode: len(p.apps),
			Reason: fmt.Sprintf("%d active apps exceed new cap %d", len(p.apps), spec.MaxApps)}
	}
	old := p.spec
	p.spec = spec
	p.dec.SetService(spec.ratePolicy(), spec.ServiceLatencyNS)
	if reason := p.dec.Check(p.apps, p.crits); reason != "" {
		p.spec = old
		p.dec.SetService(old.ratePolicy(), old.ServiceLatencyNS)
		return Decision{Mode: len(p.apps), Reason: "mode change would violate " + reason}
	}
	return Decision{OK: true, Mode: len(p.apps)}
}
