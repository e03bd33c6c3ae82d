package admission

import (
	"math"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

type admRig struct {
	eng  *sim.Engine
	mesh *noc.NoC
	sys  *System
}

func newAdm(t *testing.T, policy RatePolicy) *admRig {
	t.Helper()
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, policy)
	if err != nil {
		t.Fatal(err)
	}
	return &admRig{eng: eng, mesh: mesh, sys: sys}
}

func (r *admRig) client(t *testing.T, at noc.Coord) *Client {
	t.Helper()
	c, err := r.sys.Client(at)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSystemValidation(t *testing.T) {
	eng := sim.NewEngine()
	mesh, _ := noc.New(eng, noc.DefaultConfig())
	if _, err := NewSystem(eng, mesh, noc.Coord{X: 9, Y: 9}, Symmetric{1}); err == nil {
		t.Error("off-mesh RM accepted")
	}
	if _, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, Symmetric{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client(noc.Coord{X: -1, Y: 0}); err == nil {
		t.Error("off-mesh client accepted")
	}
}

func TestSymmetricPolicy(t *testing.T) {
	p := Symmetric{TotalBytesPerNS: 8}
	apps := []AppRef{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}
	for mode := 1; mode <= 4; mode++ {
		rates := Rates(p, apps[:mode])
		want := 8 / float64(mode)
		for _, a := range apps[:mode] {
			if got := rates[a.Name]; math.Abs(got-want) > 1e-12 {
				t.Errorf("mode %d: rate[%s] = %v, want %v", mode, a.Name, got, want)
			}
		}
	}
	if len(Rates(p, nil)) != 0 {
		t.Error("empty active set should give no rates")
	}
	if p.Name() != "symmetric" {
		t.Error("policy name")
	}
}

func TestNonSymmetricPolicy(t *testing.T) {
	p := NonSymmetric{TotalBytesPerNS: 8, CriticalBytesPerNS: 3, FloorBytesPerNS: 0.1}
	apps := []AppRef{
		{Name: "crit1", Crit: Critical},
		{Name: "be1"},
		{Name: "be2"},
	}
	rates := Rates(p, apps)
	if rates["crit1"] != 3 {
		t.Errorf("critical rate = %v, want 3", rates["crit1"])
	}
	// Remaining 5 split across 2 best-effort apps.
	if math.Abs(rates["be1"]-2.5) > 1e-12 || math.Abs(rates["be2"]-2.5) > 1e-12 {
		t.Errorf("best-effort rates = %v/%v, want 2.5", rates["be1"], rates["be2"])
	}
	// With many criticals, best effort hits the floor, critical rate
	// is preserved.
	many := []AppRef{
		{Name: "c1", Crit: Critical}, {Name: "c2", Crit: Critical},
		{Name: "c3", Crit: Critical}, {Name: "be"},
	}
	rates = Rates(p, many)
	if rates["c1"] != 3 || rates["c3"] != 3 {
		t.Error("critical guarantee lost under load")
	}
	if rates["be"] != 0.1 {
		t.Errorf("best effort = %v, want floor 0.1", rates["be"])
	}
}

func TestFirstTransmissionTrappedUntilAdmission(t *testing.T) {
	r := newAdm(t, Symmetric{TotalBytesPerNS: 8})
	cl := r.client(t, noc.Coord{X: 3, Y: 3})
	if err := cl.Register("app", BestEffort); err != nil {
		t.Fatal(err)
	}
	pkt := &noc.Packet{Dst: noc.Coord{X: 1, Y: 1}, Bytes: 64}
	var delivered sim.Time
	pkt.OnDelivered = func(at sim.Time) { delivered = at }
	if err := cl.Submit("app", pkt); err != nil {
		t.Fatal(err)
	}
	if cl.AppActive("app") {
		t.Fatal("app active before RM confirmation")
	}
	r.eng.Run()
	if !cl.AppActive("app") {
		t.Fatal("app never admitted")
	}
	if delivered == 0 {
		t.Fatal("trapped packet never delivered after admission")
	}
	lat, err := cl.AdmissionLatency("app")
	if err != nil {
		t.Fatal(err)
	}
	// Round trip across the mesh: strictly positive.
	if lat <= 0 {
		t.Errorf("admission latency = %v", lat)
	}
	if r.sys.RM().Mode() != 1 {
		t.Errorf("mode = %d, want 1", r.sys.RM().Mode())
	}
	st := r.sys.Stats()
	if st.Messages[ActMsg] != 1 || st.Messages[ConfMsg] == 0 {
		t.Errorf("protocol messages = %v", st.Messages)
	}
	if st.Admitted != 1 {
		t.Errorf("admitted = %d", st.Admitted)
	}
}

func TestUnauthorizedAppRejected(t *testing.T) {
	r := newAdm(t, Symmetric{TotalBytesPerNS: 8})
	cl := r.client(t, noc.Coord{X: 1, Y: 1})
	if err := cl.Submit("ghost", &noc.Packet{Dst: noc.Coord{X: 0, Y: 0}, Bytes: 64}); err == nil {
		t.Error("unauthorized app allowed to send")
	}
	if err := cl.Register("", BestEffort); err == nil {
		t.Error("empty name registered")
	}
	if err := cl.Register("a", BestEffort); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("a", BestEffort); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := cl.Terminate("a"); err == nil {
		t.Error("terminating inactive app accepted")
	}
	if err := cl.Submit("a", nil); err == nil {
		t.Error("nil packet accepted")
	}
}

func TestModeTracksActivationsAndTerminations(t *testing.T) {
	r := newAdm(t, Symmetric{TotalBytesPerNS: 8})
	nodes := []noc.Coord{{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}
	for i, n := range nodes {
		cl := r.client(t, n)
		name := string(rune('a' + i))
		if err := cl.Register(name, BestEffort); err != nil {
			t.Fatal(err)
		}
		if err := cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 0, Y: 3}, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if got := r.sys.RM().Mode(); got != 3 {
		t.Fatalf("mode = %d, want 3", got)
	}
	if got := len(r.sys.RM().Active()); got != 3 {
		t.Fatalf("active = %d", got)
	}
	// Terminate one.
	if err := r.client(t, nodes[1]).Terminate("b"); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if got := r.sys.RM().Mode(); got != 2 {
		t.Fatalf("mode after termination = %d, want 2", got)
	}
	st := r.sys.Stats()
	if st.Terminated != 1 || st.ModeChanges != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanModeChangeLatencyNS() <= 0 || st.MaxModeLat < st.MeanModeChangeLatencyNS() {
		t.Errorf("mode latency accounting: mean %v max %v", st.MeanModeChangeLatencyNS(), st.MaxModeLat)
	}
}

func TestSymmetricRatesDegradeWithMode(t *testing.T) {
	// Fig. 7: as more applications activate, per-application injection
	// rates drop uniformly. Measure actual throughput of app "a" while
	// one, then four, applications are active.
	r := newAdm(t, Symmetric{TotalBytesPerNS: 1.6}) // 1.6 B/ns total
	clA := r.client(t, noc.Coord{X: 1, Y: 1})
	if err := clA.Register("a", BestEffort); err != nil {
		t.Fatal(err)
	}
	// Keep "a" saturated for the whole run (64000B exceeds what both phases can drain).
	for i := 0; i < 1000; i++ {
		if err := clA.Submit("a", &noc.Packet{Dst: noc.Coord{X: 2, Y: 1}, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 1: alone until 20us.
	r.eng.RunUntil(20 * sim.Microsecond)
	aloneBytes := clA.Sent("a")

	// Phase 2: three more apps activate.
	for i, n := range []noc.Coord{{X: 0, Y: 2}, {X: 1, Y: 2}, {X: 2, Y: 2}} {
		cl := r.client(t, n)
		name := "x" + string(rune('0'+i))
		if err := cl.Register(name, BestEffort); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 400; k++ {
			if err := cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 2}, Bytes: 64}); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.eng.RunUntil(40 * sim.Microsecond)
	crowdedBytes := clA.Sent("a") - aloneBytes

	// Alone: ~1.6 B/ns = 32000B in 20us. Crowded: ~0.4 B/ns = 8000B.
	if aloneBytes < 25000 {
		t.Errorf("alone throughput = %d bytes, want ~32000", aloneBytes)
	}
	ratio := float64(aloneBytes) / float64(crowdedBytes)
	if ratio < 3 || ratio > 6 {
		t.Errorf("mode-1 vs mode-4 throughput ratio = %.2f, want ~4", ratio)
	}
	if got := clA.Mode(); got != 4 {
		t.Errorf("client mode = %d, want 4", got)
	}
}

func TestNonSymmetricPreservesCriticalThroughput(t *testing.T) {
	// The mixed-criticality property: a critical app's throughput is
	// unaffected by best-effort activations.
	run := func(extraBE int) uint64 {
		r := newAdm(t, NonSymmetric{TotalBytesPerNS: 1.6, CriticalBytesPerNS: 0.8})
		cl := r.client(t, noc.Coord{X: 1, Y: 1})
		if err := cl.Register("crit", Critical); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			if err := cl.Submit("crit", &noc.Packet{Dst: noc.Coord{X: 2, Y: 1}, Bytes: 64}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < extraBE; i++ {
			n := noc.Coord{X: i % 4, Y: 3}
			bcl := r.client(t, n)
			name := "be" + string(rune('0'+i))
			if err := bcl.Register(name, BestEffort); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 200; k++ {
				if err := bcl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 0}, Bytes: 64}); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.eng.RunUntil(30 * sim.Microsecond)
		return cl.Sent("crit")
	}
	alone := run(0)
	crowded := run(3)
	diff := float64(alone) - float64(crowded)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(alone) > 0.1 {
		t.Errorf("critical throughput changed by %.1f%% under best-effort load (alone %d, crowded %d)",
			100*diff/float64(alone), alone, crowded)
	}
}

func TestStopBlocksDuringModeChange(t *testing.T) {
	// While a reconfiguration is in flight, stopped clients inject
	// nothing. We observe the stop flag via a probe at the instant the
	// mode change is mid-flight.
	r := newAdm(t, Symmetric{TotalBytesPerNS: 0.5})
	cl1 := r.client(t, noc.Coord{X: 3, Y: 3})
	if err := cl1.Register("one", BestEffort); err != nil {
		t.Fatal(err)
	}
	if err := cl1.Submit("one", &noc.Packet{Dst: noc.Coord{X: 0, Y: 1}, Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run() // app "one" admitted
	sawStopped := false
	probe := func() {
		if cl1.Stopped() {
			sawStopped = true
		}
	}
	for i := sim.Duration(0); i < 200; i++ {
		r.eng.At(r.eng.Now()+i*sim.NS(1), probe)
	}
	cl2 := r.client(t, noc.Coord{X: 2, Y: 2})
	if err := cl2.Register("two", BestEffort); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Submit("two", &noc.Packet{Dst: noc.Coord{X: 0, Y: 1}, Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !sawStopped {
		t.Error("client was never stopped during the mode change")
	}
	if cl1.Stopped() {
		t.Error("client left stopped after reconfiguration")
	}
}

func TestDuplicateActivationRejected(t *testing.T) {
	r := newAdm(t, Symmetric{TotalBytesPerNS: 1})
	cl := r.client(t, noc.Coord{X: 1, Y: 1})
	if err := cl.Register("a", BestEffort); err != nil {
		t.Fatal(err)
	}
	_ = cl.Submit("a", &noc.Packet{Dst: noc.Coord{X: 0, Y: 1}, Bytes: 64})
	r.eng.Run()
	// Hand-inject a duplicate actMsg (e.g. a retransmission).
	r.sys.RM().handle(ActMsg, AppRef{Name: "a", Node: noc.Coord{X: 1, Y: 1}})
	r.eng.Run()
	if got := r.sys.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if r.sys.RM().Mode() != 1 {
		t.Errorf("mode corrupted by duplicate: %d", r.sys.RM().Mode())
	}
}

func TestCriticalityString(t *testing.T) {
	if BestEffort.String() != "best-effort" || Critical.String() != "critical" {
		t.Error("Criticality.String")
	}
	for _, m := range []MsgType{ActMsg, TerMsg, StopMsg, ConfMsg, MsgType(9)} {
		if m.String() == "" {
			t.Error("MsgType.String empty")
		}
	}
}

func TestDeterministicAdmission(t *testing.T) {
	run := func() (uint64, float64) {
		r := newAdm(t, Symmetric{TotalBytesPerNS: 2})
		for i := 0; i < 6; i++ {
			n := noc.Coord{X: i % 4, Y: i / 4}
			cl := r.client(t, n)
			name := "app" + string(rune('0'+i))
			if err := cl.Register(name, BestEffort); err != nil {
				t.Fatal(err)
			}
			at := sim.Duration(i) * sim.Microsecond
			r.eng.At(at, func() {
				for k := 0; k < 50; k++ {
					_ = cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 32})
				}
			})
		}
		r.eng.RunUntil(50 * sim.Microsecond)
		st := r.sys.Stats()
		return st.Messages[ConfMsg], st.TotalModeLat
	}
	c1, l1 := run()
	c2, l2 := run()
	if c1 != c2 || l1 != l2 {
		t.Fatalf("nondeterministic admission: %d/%v vs %d/%v", c1, l1, c2, l2)
	}
}
