package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// openStore opens an obs store in a temp dir with a deterministic
// clock.
func openStore(t *testing.T) *obs.Store {
	t.Helper()
	var tick int64
	s, err := obs.Open(t.TempDir(), obs.WithClock(func() int64 { tick++; return tick }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// tinyMatrix is the smallest audited contention sweep: one cell, one
// seed, short horizon.
func tinyMatrix() Matrix {
	return Matrix{Hogs: []int{2}, Durations: []sim.Duration{200 * sim.Microsecond}, Seeds: []uint64{7}}
}

// runTinySweep expands tinyMatrix with the auditor armed, records it
// into the store, and returns the results.
func runTinySweep(t *testing.T, st *obs.Store) []Result {
	t.Helper()
	specs := tinyMatrix().Expand()
	for i := range specs {
		specs[i].Platform.Audit = true
	}
	rec := NewRecorder(st, specs)
	results := Run(specs, 2, nil)
	if err := rec.Flush(results); err != nil {
		t.Fatal(err)
	}
	return results
}

func TestRecorderIdenticalSweepsStoreByteIdenticalPayloads(t *testing.T) {
	// The acceptance shape: two identical-seed sweeps recorded into
	// the store must produce byte-identical stored metric payloads —
	// only the store's own stamps may differ.
	st := openStore(t)
	runTinySweep(t, st)
	runTinySweep(t, st)
	recs, err := st.Query(obs.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("store holds %d records, want 2", len(recs))
	}
	a, b := recs[0], recs[1]
	if a.Metrics == "" || !strings.HasSuffix(a.Metrics, "# EOF\n") {
		t.Fatalf("captured payload is not OpenMetrics:\n%.200s", a.Metrics)
	}
	if a.MetricsFP != b.MetricsFP || a.Metrics != b.Metrics {
		t.Fatal("identical-seed sweeps stored different metric payloads")
	}
	if a.ConfigFP == "" || a.ConfigFP != b.ConfigFP || a.Seed != b.Seed {
		t.Fatalf("re-run identity broken: %+v vs %+v", a, b)
	}
	if a.Seq == b.Seq {
		t.Fatal("store stamps must distinguish the two appends")
	}
	if v, ok := a.Value("audit.conformance"); !ok || v != 1 {
		t.Fatalf("audited quiet run conformance = %v (ok=%v), want 1", v, ok)
	}
	if _, ok := a.Value("crit.p95_ns"); !ok {
		t.Fatalf("headline values missing: %+v", a.Values)
	}

	// The SLO engine over those runs reports 100% bound-conformance.
	sts, err := obs.EvaluateStore(st, obs.DefaultSLOs())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range sts {
		if s.SLO.Name != "bound-conformance" {
			continue
		}
		found = true
		if s.Runs != 2 || s.Attainment != 1 || s.BurnRate != 0 || !s.Met {
			t.Fatalf("conformance SLO = %+v", s)
		}
	}
	if !found {
		t.Fatal("bound-conformance SLO missing from defaults")
	}

	// And the sentinel finds nothing to flag.
	fs, err := obs.SentinelConfig{MinHistory: 1}.CheckStore(st, obs.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if reg := obs.Regressions(fs); len(reg) != 0 {
		t.Fatalf("identical runs flagged: %+v", reg)
	}
}

func TestRecorderSentinelFlagsInjectedRegression(t *testing.T) {
	st := openStore(t)
	runTinySweep(t, st)
	base, err := st.Query(obs.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a synthetic degraded re-run: p95 up 10x.
	bad := base[0]
	bad.Values = map[string]float64{"crit.p95_ns": bad.Values["crit.p95_ns"] * 10}
	bad.Metrics, bad.MetricsFP = "", ""
	if _, err := st.Append(bad); err != nil {
		t.Fatal(err)
	}
	fs, err := obs.SentinelConfig{MinHistory: 1}.CheckStore(st, obs.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Regressions(fs)
	if len(reg) != 1 || reg[0].Metric != "crit.p95_ns" {
		t.Fatalf("regressions = %+v, want the injected p95 rise", reg)
	}
}

func TestRecorderKeepsFailedRunEvidence(t *testing.T) {
	// Satellite contract at the sweep layer: a failed run's record
	// still carries whatever snapshot the sink captured before the
	// panic unwound, plus the structured failure — and no headline
	// values that would feed half-measured numbers to the SLO engine.
	st := openStore(t)
	specs := tinyMatrix().Expand()
	rec := NewRecorder(st, specs)
	boom := func(s Spec) (Result, error) {
		// The real core.Run fires the sink from its deferred dump even
		// while panicking (tested in internal/core); the fake models
		// that ordering.
		s.Platform.MetricsSink([]byte("# TYPE partial gauge\npartial 1\n# EOF\n"))
		panic("mid-collection boom")
	}
	if err := rec.Flush(Run(specs, 1, boom)); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Query(obs.Filter{Failed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("failed records = %d, want 1", len(recs))
	}
	r := recs[0]
	if !strings.Contains(r.Err, "mid-collection boom") {
		t.Fatalf("failure record = %q", r.Err)
	}
	if !strings.HasSuffix(r.Metrics, "# EOF\n") || r.MetricsFP == "" {
		t.Fatalf("failed run lost its snapshot: %+v", r)
	}
	if len(r.Values) != 0 {
		t.Fatalf("failed run carries headline values: %+v", r.Values)
	}
}

func TestConfigFingerprintIgnoresSeedAndObservers(t *testing.T) {
	specs := tinyMatrix().Expand()
	s := specs[0]
	other := s
	other.Platform.Seed = 999
	other.Platform.MetricsPath = "/tmp/out.om"
	other.Platform.MetricsSink = func([]byte) {}
	if obs.FingerprintConfig(ConfigOf(s)) != obs.FingerprintConfig(ConfigOf(other)) {
		t.Fatal("fingerprint shifted on seed/observer change")
	}
	changed := s
	changed.Platform.Hogs++
	if obs.FingerprintConfig(ConfigOf(s)) == obs.FingerprintConfig(ConfigOf(changed)) {
		t.Fatal("fingerprint ignored a configuration change")
	}

	adm := Spec{Kind: Admission, Label: "admission/apps=8", Admission: DefaultAdmissionSpec()}
	admChanged := adm
	admChanged.Admission.Apps++
	if obs.FingerprintConfig(ConfigOf(adm)) == obs.FingerprintConfig(ConfigOf(admChanged)) {
		t.Fatal("admission fingerprint ignored a configuration change")
	}
}

func TestRecordOfAdmissionValues(t *testing.T) {
	s := Spec{Kind: Admission, Label: "admission/apps=8", Admission: DefaultAdmissionSpec()}
	r := RecordOf(s, Result{Admitted: 6, Rejected: 2, ModeChanges: 1}, nil)
	if r.Kind != obs.KindAdmission || r.Label != s.Label {
		t.Fatalf("record = %+v", r)
	}
	if r.Values["admitted"] != 6 || r.Values["rejected"] != 2 || r.Values["rejection_rate"] != 0.25 {
		t.Fatalf("values = %+v", r.Values)
	}
}

// TestRecorderPayloadsHoldNoSlack: a Recorder keeps every run's
// snapshot bytes until Flush, so each payload's spare capacity is held
// for the whole sweep. The dump is sized before it is rendered, so that
// spare is only the allocator's rounding of one exact allocation: under
// an eighth for a small object, under one 8 KiB page for a large one,
// so under 8 KiB either way. A buffer grown by doubling could hold up
// to the payload's size again. The audited big mesh next to the tiny
// run gives a dump of about 2 MB.
func TestRecorderPayloadsHoldNoSlack(t *testing.T) {
	specs := tinyMatrix().Expand()
	big := specs[0]
	big.Platform = core.BigMeshSpec(0)
	big.Platform.Duration = 10 * sim.Microsecond
	specs = append(specs, big)
	for i := range specs {
		specs[i].Platform.Audit = true
	}
	rec := NewRecorder(openStore(t), specs)
	Run(specs, 2, nil)
	for i, p := range rec.payloads {
		if len(p) == 0 {
			t.Fatalf("spec %d: no payload recorded", i)
		}
		if slack := cap(p) - len(p); slack >= 8<<10 {
			t.Errorf("spec %d: payload of %d B holds %d B of spare capacity, want under 8 KiB", i, len(p), slack)
		}
	}
}
