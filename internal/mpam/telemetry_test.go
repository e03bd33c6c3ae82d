package mpam

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestArbiterTelemetry(t *testing.T) {
	eng := sim.NewEngine()
	a, err := NewArbiter(eng, BWConfig{CapacityBytesPerNS: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	mon := telemetry.NewMonitorSet(sim.Microsecond)
	a.SetTelemetry(reg, tr, mon)

	done := 0
	for i := 0; i < 4; i++ {
		id := PARTID(i % 2)
		if err := a.Submit(&BWRequest{Label: Label{PARTID: id}, Bytes: 64,
			OnDone: func(sim.Time) { done++ }}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d, want 4", done)
	}
	if got := reg.Counter("mpam.dispatches").Value(); got != 4 {
		t.Errorf("dispatch counter = %d, want 4", got)
	}
	for _, key := range []string{"partid:0", "partid:1"} {
		m := mon.Monitor(key)
		if m.TotalBytes() != 128 || m.Outstanding() != 0 {
			t.Errorf("%s monitor: total=%d outstanding=%d", key, m.TotalBytes(), m.Outstanding())
		}
	}
	if tr.Events() != 4 {
		t.Errorf("tracer events = %d, want 4 spans", tr.Events())
	}
}

// TestArbiterMonitorsResolveOnFirstTransfer pins when the arbiter's
// per-PARTID monitors come into being: none at SetTelemetry, each on
// its PARTID's first transfer, and afresh in a monitor set swapped in
// later.
func TestArbiterMonitorsResolveOnFirstTransfer(t *testing.T) {
	eng := sim.NewEngine()
	a, err := NewArbiter(eng, BWConfig{CapacityBytesPerNS: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(ids ...PARTID) {
		for _, id := range ids {
			if err := a.Submit(&BWRequest{Label: Label{PARTID: id}, Bytes: 64}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
	mon := telemetry.NewMonitorSet(sim.Microsecond)
	a.SetTelemetry(nil, nil, mon)
	if got := mon.Names(); len(got) != 0 {
		t.Fatalf("monitors before any transfer: %v, want none", got)
	}
	submit(5, 2, 5)
	if got := mon.Names(); len(got) != 2 || got[0] != "partid:2" || got[1] != "partid:5" {
		t.Fatalf("monitors = %v, want [partid:2 partid:5]", got)
	}
	if b := mon.Monitor("partid:5").TotalBytes(); b != 128 {
		t.Errorf("partid:5 bytes = %d, want 128", b)
	}
	next := telemetry.NewMonitorSet(sim.Microsecond)
	a.SetTelemetry(nil, nil, next)
	submit(2)
	if got := next.Names(); len(got) != 1 || got[0] != "partid:2" {
		t.Fatalf("swapped-in monitors = %v, want [partid:2]", got)
	}
	if b := mon.Monitor("partid:2").TotalBytes(); b != 64 {
		t.Errorf("old set's partid:2 bytes = %d after the swap, want 64", b)
	}
}

func TestBandwidthMonitorBindCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := &BandwidthMonitor{Filter: Filter{PARTID: 7}}
	m.BindCounter(reg.Counter("mpam.msmon.partid7"))
	m.Record(Label{PARTID: 7}, 100, false)
	m.Record(Label{PARTID: 3}, 50, false) // filtered out
	if m.Value() != 100 {
		t.Errorf("monitor value = %d, want 100", m.Value())
	}
	if got := reg.Counter("mpam.msmon.partid7").Value(); got != 100 {
		t.Errorf("bound counter = %d, want 100", got)
	}
	// Reset rewinds the monitor but not the cumulative shared counter.
	m.Reset()
	m.Record(Label{PARTID: 7}, 25, true)
	if m.Value() != 25 {
		t.Errorf("post-reset value = %d, want 25", m.Value())
	}
	if got := reg.Counter("mpam.msmon.partid7").Value(); got != 125 {
		t.Errorf("bound counter = %d, want cumulative 125", got)
	}
	// Unbound monitors keep working.
	m.BindCounter(nil)
	m.Record(Label{PARTID: 7}, 5, false)
	if m.Value() != 30 {
		t.Errorf("unbound value = %d, want 30", m.Value())
	}
}
