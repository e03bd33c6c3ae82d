package admission

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// testLatencyNS is the fixed platform latency of the tests' service:
// the assigned rate after 100 ns.
const testLatencyNS = 100

func TestDelayBoundCheckAccepts(t *testing.T) {
	// Symmetric 0.8 B/ns to a single app: d = 100 + 64/0.8 = 180ns < 1000ns.
	d := NewDecider(Symmetric{TotalBytesPerNS: 0.8}, testLatencyNS)
	mode := []Member{{Name: "crit", Crit: Critical, Requirement: Requirement{BurstBytes: 64, DeadlineNS: 1000}}}
	if reason := d.Check(mode, 1); reason != "" {
		t.Errorf("feasible admission rejected: %s", reason)
	}
}

func TestDelayBoundCheckRejectsDeadlineViolation(t *testing.T) {
	crit := Member{Name: "crit", Requirement: Requirement{BurstBytes: 64, DeadlineNS: 150}}
	// Symmetric 0.2 B/ns over two apps: d = 100 + 64/0.1 = 740ns > 150ns.
	d := NewDecider(Symmetric{TotalBytesPerNS: 0.2}, testLatencyNS)
	reason := d.Check([]Member{crit, {Name: "newcomer"}}, 0)
	if want := "crit delay bound 740.0 ns exceeds deadline 150.0 ns"; reason != want {
		t.Errorf("deadline violation: reason %q, want %q", reason, want)
	}
	// Zero rate is always a violation for a guaranteed app: a starved
	// best-effort class under the non-symmetric policy.
	starve := NewDecider(NonSymmetric{TotalBytesPerNS: 1, CriticalBytesPerNS: 1}, testLatencyNS)
	mode := []Member{{Name: "c", Crit: Critical}, crit}
	if reason := starve.Check(mode, 1); reason != "crit would receive no bandwidth" {
		t.Errorf("zero-rate assignment: reason %q", reason)
	}
}

func TestDelayBoundCheckIgnoresBestEffort(t *testing.T) {
	d := NewDecider(NonSymmetric{TotalBytesPerNS: 1, CriticalBytesPerNS: 1}, testLatencyNS)
	// Both best-effort apps get no bandwidth at all, yet without a
	// deadline they are admitted.
	mode := []Member{{Name: "be1", Requirement: Requirement{BurstBytes: 1e9}}, {Name: "be2"}, {Name: "c", Crit: Critical}}
	if reason := d.Check(mode, 1); reason != "" {
		t.Errorf("best-effort apps without requirements rejected: %s", reason)
	}
}

func TestRequirementValidate(t *testing.T) {
	for _, r := range []Requirement{
		{BurstBytes: -64, DeadlineNS: 1000},
		{BurstBytes: math.NaN(), DeadlineNS: 1000},
		{BurstBytes: math.Inf(1), DeadlineNS: 1000},
		{BurstBytes: 64, DeadlineNS: -1},
		{BurstBytes: 64, DeadlineNS: math.NaN()},
		{BurstBytes: 64, DeadlineNS: math.Inf(1)},
	} {
		if r.Validate() == nil {
			t.Errorf("Validate(%+v) accepted", r)
		}
	}
	for _, r := range []Requirement{{}, {BurstBytes: 64, DeadlineNS: 1000}} {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", r, err)
		}
	}
}

// TestOnlineAdmissionRejection runs the full protocol: a system whose
// symmetric budget supports two guaranteed apps rejects the third,
// which would dilute everyone below the deadline.
func TestOnlineAdmissionRejection(t *testing.T) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, Symmetric{TotalBytesPerNS: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make(map[string]Requirement)
	for i := 0; i < 3; i++ {
		// Deadline 300ns, burst 64B: needs rate >= 64/(300-100) =
		// 0.32 B/ns. Symmetric 1.0 total: mode 2 gives 0.5 (ok),
		// mode 3 gives 0.33... ok; let me tighten: deadline 260 ->
		// needs rate >= 0.4: mode 2 ok (0.5), mode 3 fails (0.333).
		reqs[fmt.Sprintf("app%d", i)] = Requirement{BurstBytes: 64, DeadlineNS: 260}
	}
	sys.SetAdmissionCheck(reqs, testLatencyNS)

	clients := make([]*Client, 3)
	for i := 0; i < 3; i++ {
		cl, err := sys.Client(noc.Coord{X: 1 + i, Y: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(fmt.Sprintf("app%d", i), Critical); err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	for i := 0; i < 3; i++ {
		i := i
		eng.At(sim.Duration(i)*sim.Microsecond, func() {
			_ = clients[i].Submit(fmt.Sprintf("app%d", i),
				&noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
		})
	}
	eng.Run()

	if !clients[0].AppActive("app0") || !clients[1].AppActive("app1") {
		t.Fatal("first two apps should be admitted")
	}
	if clients[2].AppActive("app2") {
		t.Fatal("third app admitted despite violating the analytic bound")
	}
	if !clients[2].AppRejected("app2") {
		t.Error("rejection not recorded at the client")
	}
	if sys.RM().Mode() != 2 {
		t.Errorf("mode = %d, want 2", sys.RM().Mode())
	}
	if got := sys.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestRejectedAppCanRetryAfterCapacityFrees is the dynamic half: after
// a guaranteed app terminates, the previously rejected one is admitted
// on retry.
func TestRejectedAppCanRetryAfterCapacityFrees(t *testing.T) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, Symmetric{TotalBytesPerNS: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	reqs := map[string]Requirement{
		"a": {BurstBytes: 64, DeadlineNS: 260},
		"b": {BurstBytes: 64, DeadlineNS: 260},
		"c": {BurstBytes: 64, DeadlineNS: 260},
	}
	sys.SetAdmissionCheck(reqs, testLatencyNS)

	mk := func(name string, x int) *Client {
		cl, err := sys.Client(noc.Coord{X: x, Y: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(name, Critical); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	ca, cb, cc := mk("a", 0), mk("b", 1), mk("c", 2)
	submit := func(cl *Client, name string) {
		_ = cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
	}
	submit(ca, "a")
	submit(cb, "b")
	eng.Run()
	submit(cc, "c") // mode 3 would violate: rejected
	eng.Run()
	if !cc.AppRejected("c") {
		t.Fatal("c should have been rejected at mode 3")
	}
	if err := ca.Terminate("a"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	submit(cc, "c") // retry at mode 2: fits now
	eng.Run()
	if !cc.AppActive("c") {
		t.Fatal("c not admitted after capacity freed")
	}
	if cc.AppRejected("c") {
		t.Error("stale rejection flag after successful retry")
	}
}
