package noc

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestTelemetrySpansAndMonitors(t *testing.T) {
	eng := sim.NewEngine()
	n, err := New(eng, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	mon := telemetry.NewMonitorSet(sim.Microsecond)
	n.SetTelemetry(reg, tr, mon)

	ni, _ := n.NI(Coord{0, 0})
	done := 0
	for i := 0; i < 3; i++ {
		if err := ni.Send(&Packet{Flow: "crit", Dst: Coord{3, 3}, Bytes: 64,
			OnDelivered: func(sim.Time) { done++ }}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 3 {
		t.Fatalf("delivered %d, want 3", done)
	}
	if got := reg.Counter("noc.delivered").Value(); got != 3 {
		t.Errorf("noc.delivered = %d, want 3", got)
	}
	if reg.Counter("noc.flit_hops").Value() != n.FlitHops() {
		t.Errorf("counter hops %d != native hops %d",
			reg.Counter("noc.flit_hops").Value(), n.FlitHops())
	}
	m := mon.Monitor("noc:crit")
	if m.TotalBytes() != 3*64 || m.Outstanding() != 0 || m.OutstandingHighWater() < 1 {
		t.Errorf("monitor: total=%d outstanding=%d hwm=%d",
			m.TotalBytes(), m.Outstanding(), m.OutstandingHighWater())
	}
	if tr.Events() < 3 {
		t.Errorf("tracer recorded %d events, want >= 3 spans", tr.Events())
	}
}

// TestTelemetryWarmDeliveryAllocatesNothing: once a flow's monitor and
// latency histogram are resolved, the per-packet submit and delivery
// hooks build no key and allocate nothing.
func TestTelemetryWarmDeliveryAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	n, err := New(eng, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mon := telemetry.NewMonitorSet(sim.Microsecond)
	n.SetTelemetry(reg, nil, mon)
	n.EnableFlowLatencyHistograms()
	p := &Packet{Flow: "crit", Bytes: 64}
	hooks := func() {
		n.traceSubmit(p)
		n.traceDeliver(p, 1000)
	}
	hooks()
	if a := testing.AllocsPerRun(100, hooks); a != 0 {
		t.Errorf("warm submit+delivery hooks: %v allocs/run, want 0", a)
	}
	if got := mon.Monitor("noc:crit").Events(); got != 102 {
		t.Errorf("noc:crit monitor events = %d, want 102", got)
	}
	if got := reg.Histogram("noc.latency.crit").Count(); got != 102 {
		t.Errorf("noc.latency.crit count = %d, want 102", got)
	}
}

func TestTelemetryDisabledNoOverheadPath(t *testing.T) {
	eng := sim.NewEngine()
	n, err := New(eng, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.SetTelemetry(nil, nil, nil) // explicit disable keeps tel nil
	ni, _ := n.NI(Coord{1, 1})
	if err := ni.Send(&Packet{Dst: Coord{2, 2}, Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if n.Delivered() != 1 {
		t.Fatalf("delivered %d, want 1", n.Delivered())
	}
}

func TestResetCounters(t *testing.T) {
	eng := sim.NewEngine()
	n, err := New(eng, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ni, _ := n.NI(Coord{0, 0})
	for i := 0; i < 5; i++ {
		if err := ni.Send(&Packet{Dst: Coord{3, 0}, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if n.Delivered() != 5 || n.FlitHops() == 0 {
		t.Fatalf("precondition: delivered=%d hops=%d", n.Delivered(), n.FlitHops())
	}
	n.ResetCounters()
	if n.Delivered() != 0 || n.FlitHops() != 0 {
		t.Errorf("after reset: delivered=%d hops=%d", n.Delivered(), n.FlitHops())
	}
	if s, i := ni.Counts(); s != 0 || i != 0 {
		t.Errorf("NI counts after reset: %d/%d", s, i)
	}
	// The fabric keeps working after a reset.
	if err := ni.Send(&Packet{Dst: Coord{1, 0}, Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if n.Delivered() != 1 {
		t.Errorf("post-reset delivery count = %d, want 1", n.Delivered())
	}
}
