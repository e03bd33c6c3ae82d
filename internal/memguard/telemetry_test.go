package memguard

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestTelemetryStallSpanAndMonitors(t *testing.T) {
	eng := sim.NewEngine()
	r, err := New(eng, Config{Period: sim.Millisecond, InterruptOverhead: sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	mon := telemetry.NewMonitorSet(sim.Millisecond)
	r.SetTelemetry(reg, tr, mon)
	if err := r.Bind("crit").SetBudget(100); err != nil {
		t.Fatal(err)
	}

	granted := 0
	eng.At(0, func() {
		r.Bind("crit").Request(80, func() { granted++ }) // fits
		r.Bind("crit").Request(80, func() { granted++ }) // depletes -> throttled
		r.Bind("free").Request(64, func() { granted++ }) // unregulated pass-through
	})
	eng.Run()
	if granted != 3 {
		t.Fatalf("granted %d, want 3", granted)
	}
	if got := reg.Counter("memguard.requests").Value(); got != 3 {
		t.Errorf("requests counter = %d, want 3", got)
	}
	if got := reg.Counter("memguard.throttle_events").Value(); got != 1 {
		t.Errorf("throttle counter = %d, want 1", got)
	}
	// The throttled request's grant happens at the period boundary, so
	// its monitor bytes land there and the stall span is a full period.
	m := mon.Monitor("mem:crit")
	if m.TotalBytes() != 160 || m.Outstanding() != 0 {
		t.Errorf("crit monitor: total=%d outstanding=%d", m.TotalBytes(), m.Outstanding())
	}
	if mon.Monitor("mem:free").TotalBytes() != 64 {
		t.Errorf("pass-through monitor bytes = %d, want 64", mon.Monitor("mem:free").TotalBytes())
	}
	// Spans: 3 grants + 1 depleted instant + 1 replenished instant.
	if tr.Events() != 5 {
		t.Errorf("tracer events = %d, want 5", tr.Events())
	}
}

func TestTelemetryDisabledRegulatorUnchanged(t *testing.T) {
	eng := sim.NewEngine()
	r, err := New(eng, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.SetTelemetry(nil, nil, nil)
	ran := false
	r.Bind("anyone").Request(64, func() { ran = true })
	if !ran {
		t.Error("pass-through request did not run")
	}
}

// TestTelemetryWarmRequestAllocatesNothing: once an entity's monitor is
// resolved, an instrumented request, regulated or pass-through, builds
// no key and allocates nothing.
func TestTelemetryWarmRequestAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	r, err := New(eng, Config{Period: sim.Millisecond, InterruptOverhead: sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	mon := telemetry.NewMonitorSet(sim.Millisecond)
	r.SetTelemetry(telemetry.NewRegistry(), nil, mon)
	crit, free := r.Bind("crit"), r.Bind("free")
	if err := crit.SetBudget(1 << 40); err != nil {
		t.Fatal(err)
	}
	req := func() {
		crit.Request(64, nil)
		free.Request(64, nil)
	}
	req()
	if a := testing.AllocsPerRun(100, req); a != 0 {
		t.Errorf("warm instrumented Request: %v allocs/run, want 0", a)
	}
	if got := mon.Monitor("mem:crit").TotalBytes(); got != 102*64 {
		t.Errorf("crit monitor bytes = %d, want %d", got, 102*64)
	}
	if got := mon.Names(); len(got) != 2 || got[0] != "mem:crit" || got[1] != "mem:free" {
		t.Errorf("monitors = %v, want [mem:crit mem:free]", got)
	}
}
