package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SLO is one declarative service-level objective evaluated over
// stored runs: "in the last Window runs (matching Filter), at least
// Target of them must have Metric Op Goal". The three defaults
// (DefaultSLOs) encode the predictability contract the paper's
// Resource Manager is supposed to uphold; tools may load their own
// specs from JSON.
type SLO struct {
	// Name identifies the objective in reports and metric keys.
	Name string `json:"name"`
	// Metric is the RunRecord value the objective constrains.
	Metric string `json:"metric"`
	// Op compares a run's value against Goal: ">=" or "<=".
	Op string `json:"op"`
	// Goal is the per-run threshold.
	Goal float64 `json:"goal"`
	// Target is the fraction of windowed runs that must meet Goal
	// (0 < Target <= 1).
	Target float64 `json:"target"`
	// Window is the rolling window in runs (last N with the metric
	// present; 0 = all stored runs).
	Window int `json:"window,omitempty"`
	// Kind/Label restrict which records the objective sees (empty =
	// any). Failed runs are always counted as bad when they match.
	Kind  string `json:"kind,omitempty"`
	Label string `json:"label,omitempty"`
}

// Validate checks the spec.
func (s SLO) Validate() error {
	if s.Name == "" || s.Metric == "" {
		return fmt.Errorf("obs: SLO needs name and metric: %+v", s)
	}
	if s.Op != ">=" && s.Op != "<=" {
		return fmt.Errorf("obs: SLO %s: op %q, want \">=\" or \"<=\"", s.Name, s.Op)
	}
	if s.Target <= 0 || s.Target > 1 {
		return fmt.Errorf("obs: SLO %s: target %v, want (0, 1]", s.Name, s.Target)
	}
	if s.Window < 0 {
		return fmt.Errorf("obs: SLO %s: window %d, want >= 0", s.Name, s.Window)
	}
	return nil
}

// good reports whether one run meets the per-run goal.
func (s SLO) good(r RunRecord) (good, counted bool) {
	if r.Failed() {
		// A failed run is a bad run for every objective that matches
		// its kind/label: it consumed error budget by not delivering.
		return false, true
	}
	v, ok := r.Value(s.Metric)
	if !ok {
		return false, false
	}
	if s.Op == ">=" {
		return v >= s.Goal, true
	}
	return v <= s.Goal, true
}

// MaxBurnRate caps reported burn rates so JSON stays finite when the
// error budget is zero (Target == 1) or fully torched.
const MaxBurnRate = 1000

// SLOStatus is one objective's evaluation over a window of records.
type SLOStatus struct {
	SLO SLO `json:"slo"`
	// Runs is the number of windowed runs that carried the metric (or
	// failed); Good of them met the goal.
	Runs int `json:"runs"`
	Good int `json:"good"`
	// Attainment is Good/Runs (1 when no runs counted — an empty
	// window has spent no budget).
	Attainment float64 `json:"attainment"`
	// BurnRate is the error-budget burn: (1-Attainment)/(1-Target),
	// the standard SRE multiple where 1.0 means "spending exactly the
	// budget". Capped at MaxBurnRate; 0 when nothing was bad.
	BurnRate float64 `json:"burn_rate"`
	// Met reports Attainment >= Target.
	Met bool `json:"met"`
}

// Evaluate runs each objective over the records (append order). Specs
// must validate; invalid specs error rather than silently skipping.
func Evaluate(recs []RunRecord, slos []SLO) ([]SLOStatus, error) {
	out := make([]SLOStatus, 0, len(slos))
	for _, s := range slos {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		st := SLOStatus{SLO: s}
		// Collect the counted runs newest-last, then window the tail.
		var counted []bool // true = good
		for _, r := range recs {
			if s.Kind != "" && r.Kind != s.Kind {
				continue
			}
			if s.Label != "" && r.Label != s.Label {
				continue
			}
			good, ok := s.good(r)
			if !ok {
				continue
			}
			counted = append(counted, good)
		}
		if s.Window > 0 && len(counted) > s.Window {
			counted = counted[len(counted)-s.Window:]
		}
		for _, g := range counted {
			st.Runs++
			if g {
				st.Good++
			}
		}
		st.Attainment = 1
		if st.Runs > 0 {
			st.Attainment = float64(st.Good) / float64(st.Runs)
		}
		st.BurnRate = burnRate(st.Attainment, s.Target)
		st.Met = st.Attainment >= s.Target
		out = append(out, st)
	}
	return out, nil
}

// burnRate computes the capped error-budget burn multiple.
func burnRate(attainment, target float64) float64 {
	bad := 1 - attainment
	if bad <= 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		return MaxBurnRate
	}
	br := bad / budget
	if br > MaxBurnRate {
		return MaxBurnRate
	}
	return br
}

// EvaluateStore queries the store and evaluates the objectives over
// every matching record.
func EvaluateStore(s *Store, slos []SLO) ([]SLOStatus, error) {
	recs, err := s.Query(Filter{})
	if err != nil {
		return nil, err
	}
	return Evaluate(recs, slos)
}

// DefaultSLOs is the predictability contract the repository's own
// writers are held to: analytic-bound conformance on audited runs,
// a p99-class tail-latency ceiling on the critical app, and a
// throughput floor on the kernel bench trajectory.
func DefaultSLOs() []SLO {
	return []SLO{
		{
			Name:   "bound-conformance",
			Metric: "audit.conformance",
			Op:     ">=", Goal: 1.0,
			Target: 0.99, Window: 50,
			Kind: KindContention,
		},
		{
			Name:   "crit-p95-latency",
			Metric: "crit.p95_ns",
			Op:     "<=", Goal: 5000,
			Target: 0.95, Window: 50,
			Kind: KindContention,
		},
		{
			Name:   "kernel-events-per-sec",
			Metric: "new.events_per_sec",
			Op:     ">=", Goal: 5e6,
			Target: 0.9, Window: 20,
			Kind: KindBench,
		},
	}
}

// ServiceSLOs is the admission-service plane's contract, evaluated
// over KindService records written by the load harness (cmd/rmload)
// and served live on rmd's /slo endpoint: decisions stay fast at the
// tail, and the steady-state (soak) path stays available. The
// availability objective is scoped to soak records: a deliberately
// saturated run recorded into the same store answers 429s by design,
// which is backpressure working, not an outage.
func ServiceSLOs() []SLO {
	return []SLO{
		{
			Name:   "service-decision-p99",
			Metric: "decision.p99_ns",
			Op:     "<=", Goal: 1e6, // 1 ms server-side p99 per decision
			Target: 0.95, Window: 50,
			Kind: KindService,
		},
		{
			Name:   "service-availability",
			Metric: "availability",
			Op:     ">=", Goal: 0.999,
			Target: 0.95, Window: 50,
			Kind: KindService, Label: "rmload/soak",
		},
		{
			Name:   "service-throughput",
			Metric: "decisions_per_sec",
			Op:     ">=", Goal: 1e5, // floor; the batched-path target is 1e6
			Target: 0.9, Window: 20,
			Kind: KindService,
		},
	}
}

// LoadSLOs decodes a JSON array of SLO specs.
func LoadSLOs(r io.Reader) ([]SLO, error) {
	var slos []SLO
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&slos); err != nil {
		return nil, fmt.Errorf("obs: decode SLO specs: %w", err)
	}
	for _, s := range slos {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return slos, nil
}
