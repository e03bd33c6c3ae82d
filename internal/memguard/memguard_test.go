package memguard

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newReg(t *testing.T, cfg Config) (*sim.Engine, *Regulator) {
	t.Helper()
	eng := sim.NewEngine()
	r, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, r
}

func TestConfigValidation(t *testing.T) {
	if (Config{Period: 0}).Validate() == nil {
		t.Error("zero period accepted")
	}
	if (Config{Period: 1, InterruptOverhead: -1}).Validate() == nil {
		t.Error("negative overhead accepted")
	}
	if DefaultConfig().Validate() != nil {
		t.Error("default config rejected")
	}
	eng := sim.NewEngine()
	if _, err := New(eng, Config{}); err == nil {
		t.Error("New accepted bad config")
	}
}

func TestSetBudgetValidation(t *testing.T) {
	_, r := newReg(t, DefaultConfig())
	if r.Bind("").SetBudget(100) == nil {
		t.Error("empty name accepted")
	}
	if r.Bind("a").SetBudget(0) == nil {
		t.Error("zero budget accepted")
	}
	if err := r.Bind("a").SetBudget(100); err != nil {
		t.Fatal(err)
	}
	if r.Entities() != 1 {
		t.Errorf("entities = %d", r.Entities())
	}
}

func TestUnregulatedPassThrough(t *testing.T) {
	_, r := newReg(t, DefaultConfig())
	ran := false
	if err := r.Bind("ghost").Request(64, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("unregulated request did not pass through")
	}
	if r.Bind("ghost").Request(0, nil) == nil {
		t.Error("zero-byte request accepted")
	}
}

func TestBudgetEnforcedWithinPeriod(t *testing.T) {
	eng, r := newReg(t, Config{Period: sim.Microsecond, InterruptOverhead: sim.NS(100)})
	if err := r.Bind("core0").SetBudget(128); err != nil {
		t.Fatal(err)
	}
	var done []sim.Time
	issue := func() {
		_ = r.Bind("core0").Request(64, func() { done = append(done, eng.Now()) })
	}
	issue() // 64 of 128
	issue() // 128 of 128
	issue() // over budget: throttled to next period
	eng.Run()
	if len(done) != 3 {
		t.Fatalf("completed %d requests, want 3", len(done))
	}
	if done[0] != 0 || done[1] != 0 {
		t.Error("in-budget requests delayed")
	}
	if done[2] != sim.Time(sim.Microsecond) {
		t.Errorf("throttled request released at %v, want period boundary 1us", done[2])
	}
	st := r.Stats("core0")
	if st.ThrottleEvents != 1 {
		t.Errorf("throttle events = %d", st.ThrottleEvents)
	}
	if st.ThrottledTime != sim.Microsecond {
		t.Errorf("throttled time = %v", st.ThrottledTime)
	}
	if st.BytesServed != 192 || st.Requests != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestThrottlingLimitsLongRunBandwidth(t *testing.T) {
	// 128 B per 1us = 0.128 B/ns. Issue far more: long-run served
	// bytes track the budgeted rate.
	eng, r := newReg(t, Config{Period: sim.Microsecond, InterruptOverhead: 0})
	if err := r.Bind("core0").SetBudget(128); err != nil {
		t.Fatal(err)
	}
	var served int
	var issue func()
	issue = func() {
		_ = r.Bind("core0").Request(64, func() {
			served += 64
			if eng.Now() < 20*sim.Microsecond {
				issue()
			}
		})
	}
	issue()
	issue()
	issue() // keep one queued at all times
	eng.Run()
	// ~21 periods x 128B.
	if served < 2400 || served > 2900 {
		t.Errorf("served %d bytes over ~20us, want ~2688", served)
	}
}

func TestLazyReplenishAfterIdle(t *testing.T) {
	eng, r := newReg(t, Config{Period: sim.Microsecond, InterruptOverhead: sim.NS(100)})
	if err := r.Bind("c").SetBudget(64); err != nil {
		t.Fatal(err)
	}
	_ = r.Bind("c").Request(64, nil) // drain the budget
	// Long idle: budgets must be fresh afterwards without any events
	// having run.
	eng.RunUntil(50 * sim.Microsecond)
	ran := false
	_ = r.Bind("c").Request(64, func() { ran = true })
	if !ran {
		t.Error("budget not lazily replenished after idle")
	}
}

func TestOverheadGrowsWithGranularity(t *testing.T) {
	// The Section II claim: regulating more (finer) entities costs
	// more overhead for the same total traffic.
	run := func(entities int) sim.Duration {
		eng, r := newReg(t, Config{Period: sim.Microsecond, InterruptOverhead: sim.NS(500)})
		per := 1024 / entities
		es := make([]*Entity, entities)
		for i := range es {
			es[i] = r.Bind("e" + string(rune('0'+i)))
			if err := es[i].SetBudget(per); err != nil {
				t.Fatal(err)
			}
		}
		// Same aggregate traffic spread across the entities, enough to
		// throttle everyone every period.
		for step := 0; step < 40; step++ {
			at := sim.Duration(step) * sim.NS(250)
			eng.At(at, func() {
				for _, e := range es {
					_ = e.Request(2*per, nil)
				}
			})
		}
		eng.Run()
		return r.Overhead()
	}
	coarse := run(1)
	fine := run(8)
	if fine <= coarse {
		t.Errorf("overhead did not grow with granularity: 1 entity %v vs 8 entities %v", coarse, fine)
	}
}

func TestIsolationBetweenEntities(t *testing.T) {
	// One entity exhausting its budget must not delay another.
	eng, r := newReg(t, Config{Period: sim.Microsecond, InterruptOverhead: 0})
	_ = r.Bind("hog").SetBudget(64)
	_ = r.Bind("victim").SetBudget(64)
	_ = r.Bind("hog").Request(64, nil)
	_ = r.Bind("hog").Request(64, nil) // throttled
	ran := false
	_ = r.Bind("victim").Request(64, func() { ran = true })
	if !ran {
		t.Error("victim delayed by hog's throttling")
	}
	eng.Run()
	if r.Stats("victim").ThrottleEvents != 0 {
		t.Error("victim throttled")
	}
}

func TestFIFOWithinEntity(t *testing.T) {
	eng, r := newReg(t, Config{Period: sim.Microsecond, InterruptOverhead: 0})
	_ = r.Bind("c").SetBudget(64)
	_ = r.Bind("c").Request(64, nil)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		_ = r.Bind("c").Request(64, func() { order = append(order, i) })
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("drain order = %v", order)
	}
}

func TestQuickBudgetNeverExceededPerPeriod(t *testing.T) {
	// Property: within any single period, served bytes <= budget.
	f := func(seed uint64, budget16 uint16, n8 uint8) bool {
		budget := int(budget16%1000) + 128 // always above the max request size
		eng := sim.NewEngine()
		r, err := New(eng, Config{Period: sim.Microsecond})
		if err != nil {
			return false
		}
		if r.Bind("c").SetBudget(budget) != nil {
			return false
		}
		rnd := sim.NewRand(seed)
		perPeriod := make(map[int64]int)
		ok := true
		for i := 0; i < int(n8)+5; i++ {
			at := rnd.Duration(5 * sim.Microsecond)
			size := 16 + rnd.Intn(64)
			eng.At(at, func() {
				_ = r.Bind("c").Request(size, func() {
					idx := int64(eng.Now()) / int64(sim.Microsecond)
					perPeriod[idx] += size
					if perPeriod[idx] > budget {
						ok = false
					}
				})
			})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBoundEntities pins the handle contract: Bind returns one entity
// per name, Reserve(n) hands n out without an allocation each, an
// entity passes requests through (uncounted) until it is budgeted, its
// first budget meters from the current period without a catch-up
// interrupt, and only an entity that throttles builds its drain
// callback.
func TestBoundEntities(t *testing.T) {
	eng, r := newReg(t, Config{Period: sim.Microsecond, InterruptOverhead: sim.NS(100)})
	r.Reserve(2)
	names := []string{"a", "b"}
	i := 0
	if allocs := testing.AllocsPerRun(1, func() { r.Bind(names[i]); i++ }); allocs != 0 {
		t.Errorf("binding a reserved entity: %v allocs, want 0", allocs)
	}
	a, b := r.Bind("a"), r.Bind("b")
	if a == b || r.Bind("a") != a {
		t.Fatal("Bind does not return one entity per name")
	}
	ran := false
	if err := a.Request(64, func() { ran = true }); err != nil || !ran {
		t.Fatalf("unbudgeted request: err %v, ran %v; want a pass-through", err, ran)
	}
	if st, n := a.Stats(), r.Entities(); st.Requests != 0 || n != 0 {
		t.Fatalf("pass-through counted: %d requests, %d regulated entities; want 0, 0", st.Requests, n)
	}
	if _, ok := a.Budget(); ok {
		t.Fatal("unbudgeted entity reports a budget")
	}

	eng.RunUntil(5*sim.Microsecond + sim.NS(500))
	if err := a.SetBudget(64); err != nil {
		t.Fatal(err)
	}
	_ = a.Request(64, nil)
	if r.Overhead() != 0 {
		t.Errorf("first budget mid-run charged %v of catch-up overhead, want 0", r.Overhead())
	}
	if a.drainFn != nil || b.drainFn != nil {
		t.Fatal("drain callback built before any throttle")
	}
	_ = a.Request(64, nil) // over budget: throttles
	if a.drainFn == nil || b.drainFn != nil {
		t.Fatalf("after a's first throttle: a has a drain callback %v, b %v; want a only", a.drainFn != nil, b.drainFn != nil)
	}
	if got, ok := a.Budget(); !ok || got != 64 || r.Entities() != 1 {
		t.Fatalf("a.Budget() = %d, %v with %d regulated entities; want 64, true, 1", got, ok, r.Entities())
	}
}
