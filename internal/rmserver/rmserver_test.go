package rmserver

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// ---- ring ----

func TestRingDeterministicRouting(t *testing.T) {
	a, b := newRing(8), newRing(8)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("platform-%d", i)
		if got, want := a.shardOf(name), b.shardOf(name); got != want {
			t.Fatalf("ring routing diverges for %q: %d vs %d", name, got, want)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	const shards, keys = 8, 10000
	r := newRing(shards)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[r.shardOf(fmt.Sprintf("platform-%d", i))]++
	}
	// With 64 vnodes/shard the spread is within a small factor of
	// uniform; assert every shard carries a meaningful share.
	min := keys / shards / 4
	for sh, c := range counts {
		if c < min {
			t.Errorf("shard %d got %d of %d keys, want >= %d (counts %v)", sh, c, keys, min, counts)
		}
	}
}

// ---- breaker ----

func testBreaker(t *testing.T) (*breaker, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	b := newBreaker(BreakerConfig{
		Window:         time.Second,
		MinRequests:    4,
		TripRatio:      0.5,
		Cooldown:       2 * time.Second,
		HalfOpenProbes: 2,
		now:            func() time.Time { return now },
	})
	return b, &now
}

func TestBreakerTripsOnThrottleRatio(t *testing.T) {
	b, _ := testBreaker(t)
	for i := 0; i < 3; i++ {
		b.Record(true)
		if st, _ := b.State(); st != breakerClosed {
			t.Fatalf("breaker opened below MinRequests (after %d)", i+1)
		}
	}
	b.Record(true) // 4th: MinRequests met, ratio 1.0 >= 0.5
	if st, opens := b.State(); st != breakerOpen || opens != 1 {
		t.Fatalf("state = %v opens = %d, want open/1", st, opens)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, now := testBreaker(t)
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	*now = now.Add(3 * time.Second) // past cooldown
	if !b.Allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if st, _ := b.State(); st != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
	b.Record(false)
	b.Record(false) // HalfOpenProbes = 2 → closed
	if st, _ := b.State(); st != breakerClosed {
		t.Fatalf("state after clean probes = %v, want closed", st)
	}
}

func TestBreakerHalfOpenReopensOnThrottle(t *testing.T) {
	b, now := testBreaker(t)
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	*now = now.Add(3 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not half-open")
	}
	b.Record(true)
	if st, opens := b.State(); st != breakerOpen || opens != 2 {
		t.Fatalf("state = %v opens = %d, want open/2 after throttled probe", st, opens)
	}
}

func TestBreakerWindowForgetsOldThrottles(t *testing.T) {
	b, now := testBreaker(t)
	b.Record(true)
	b.Record(true)
	*now = now.Add(5 * time.Second) // whole window rotated away
	for i := 0; i < 8; i++ {
		b.Record(false)
	}
	b.Record(true) // 1/9 in-window, below ratio
	if st, _ := b.State(); st != breakerClosed {
		t.Fatalf("stale throttles tripped the breaker: %v", st)
	}
}

// ---- platform decision core ----

func testPlatform(spec PlatformSpec) *platform {
	return newPlatform(spec)
}

func regOp(app string, crit bool, burst, deadline float64) *Op {
	op := &Op{Kind: OpRegister, Platform: "p", App: app, BurstBytes: burst, DeadlineNS: deadline}
	if crit {
		op.Crit = admission.Critical
	}
	return op
}

// Symmetric policy, budget 1 B/ns, latency 100 ns: with n apps each
// gets rate 1/n, so an app with burst 100 has bound 100 + 100n. A
// 350 ns deadline therefore admits two apps and rejects the third —
// exactly the paper's mode-dependent guarantee collapsing as the mode
// grows.
func TestPlatformSymmetricAdmission(t *testing.T) {
	p := testPlatform(PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100})
	for i := 0; i < 2; i++ {
		d := p.register(regOp(fmt.Sprintf("a%d", i), false, 100, 350))
		if !d.OK {
			t.Fatalf("app %d rejected: %s", i, d.Reason)
		}
		if want := 1.0 / float64(i+1); d.RateBytesPerNS != want {
			t.Fatalf("app %d rate = %v, want %v", i, d.RateBytesPerNS, want)
		}
	}
	d := p.register(regOp("a2", false, 100, 350))
	if d.OK {
		t.Fatal("third app admitted; bound 400 ns should exceed the 350 ns deadline")
	}
	if d.Mode != 2 {
		t.Fatalf("rejection left mode %d, want 2 (rollback)", d.Mode)
	}
	// The rejection must not have disturbed the admitted set.
	if d := p.withdraw(&Op{Kind: OpWithdraw, Platform: "p", App: "a0"}); !d.OK || d.Mode != 1 {
		t.Fatalf("withdraw after rejected admit: ok=%v mode=%d", d.OK, d.Mode)
	}
}

func TestPlatformDuplicateAndUnknown(t *testing.T) {
	p := testPlatform(PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 0})
	if d := p.register(regOp("a", false, 1, 1e6)); !d.OK {
		t.Fatalf("admit: %s", d.Reason)
	}
	if d := p.register(regOp("a", false, 1, 1e6)); d.OK || !strings.Contains(d.Reason, "duplicate") {
		t.Fatalf("duplicate register: ok=%v reason=%q", d.OK, d.Reason)
	}
	if d := p.withdraw(&Op{App: "ghost"}); d.OK || !strings.Contains(d.Reason, "not registered") {
		t.Fatalf("ghost withdraw: ok=%v reason=%q", d.OK, d.Reason)
	}
}

func TestPlatformNonSymmetricRates(t *testing.T) {
	p := testPlatform(PlatformSpec{
		Policy: "non-symmetric", TotalBytesPerNS: 1,
		CriticalBytesPerNS: 0.4, FloorBytesPerNS: 0.05, ServiceLatencyNS: 0,
	})
	if d := p.register(regOp("crit", true, 1, 1e9)); !d.OK || d.RateBytesPerNS != 0.4 {
		t.Fatalf("critical app: ok=%v rate=%v, want 0.4", d.OK, d.RateBytesPerNS)
	}
	// One BE app: (1 - 0.4) / 1 = 0.6.
	if d := p.register(regOp("be", false, 1, 1e9)); !d.OK || d.RateBytesPerNS != 0.6 {
		t.Fatalf("best-effort app: ok=%v rate=%v, want 0.6", d.OK, d.RateBytesPerNS)
	}
}

func TestPlatformBestEffortNoDeadlineAlwaysAdmits(t *testing.T) {
	p := testPlatform(PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100})
	for i := 0; i < 50; i++ {
		if d := p.register(regOp(fmt.Sprintf("a%d", i), false, 1e9, 0)); !d.OK {
			t.Fatalf("deadline-free app %d rejected: %s", i, d.Reason)
		}
	}
}

func TestPlatformModeChangeRollback(t *testing.T) {
	p := testPlatform(PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100})
	if d := p.register(regOp("a", false, 100, 350)); !d.OK {
		t.Fatalf("admit: %s", d.Reason)
	}
	// Shrinking the budget to 0.1 makes a's bound 100 + 100/0.1 =
	// 1100 ns > 350 ns: the mode change must be refused and rolled back.
	d := p.modeChange(PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 0.1, ServiceLatencyNS: 100})
	if d.OK {
		t.Fatal("mode change committed despite violating an admitted app")
	}
	if p.spec.TotalBytesPerNS != 1 {
		t.Fatalf("spec not rolled back: budget %v", p.spec.TotalBytesPerNS)
	}
	// A compatible change commits.
	if d := p.modeChange(PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 2, ServiceLatencyNS: 100}); !d.OK {
		t.Fatalf("compatible mode change refused: %s", d.Reason)
	}
}

// An in-process caller bypasses the wire parsers: a contract the bound
// computation cannot take must be rejected, not panic the shard.
func TestFleetRejectsInvalidContract(t *testing.T) {
	f := New(Config{Shards: 1}, telemetry.NewRegistry())
	defer f.Drain()
	ds := f.Do([]Op{
		{Kind: OpRegister, Platform: "p", App: "neg", BurstBytes: -64, DeadlineNS: 1000},
		{Kind: OpRegister, Platform: "p", App: "nan", BurstBytes: 64, DeadlineNS: math.NaN()},
		{Kind: OpRegister, Platform: "p", App: "ok", BurstBytes: 64, DeadlineNS: 1000},
	})
	if ds[0].OK || ds[1].OK || !ds[2].OK || ds[2].Mode != 1 {
		t.Fatalf("decisions %+v: want the two bad contracts rejected and the good one admitted", ds)
	}
}

// ---- compact wire format ----

func TestParseOpLine(t *testing.T) {
	op, err := parseOpLine("r plat app c 64 1000")
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpRegister || op.Platform != "plat" || op.App != "app" ||
		op.Crit != admission.Critical || op.BurstBytes != 64 || op.DeadlineNS != 1000 {
		t.Fatalf("parsed %+v", op)
	}
	if op, err := parseOpLine("w plat app"); err != nil || op.Kind != OpWithdraw {
		t.Fatalf("withdraw parse: %+v, %v", op, err)
	}
	for _, bad := range []string{
		"x plat app",        // unknown verb
		"r plat app z 1 1",  // bad criticality
		"r plat app b xx 1", // bad burst
		"r plat app b 1 xx", // bad deadline
		"r  ",               // missing fields
		"w plat",            // missing app
		"r p a b -64 1000",  // negative burst
		"r p a b 64 NaN",    // NaN deadline
		"r p a b Inf 1000",  // infinite burst
		"r p a b 64 -1",     // negative deadline
		"r p a b 64 +Inf",   // infinite deadline
	} {
		if _, err := parseOpLine(bad); err == nil {
			t.Errorf("parseOpLine(%q) accepted", bad)
		}
	}
}

// ---- fleet ----

func TestFleetScatterGatherOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := New(Config{Shards: 4, QueueDepth: 8}, reg)
	defer f.Drain()

	// One register + withdraw pair per platform, interleaved across
	// platforms so the batch spans several shards; decisions must come
	// back in input order with the register preceding its withdraw.
	var ops []Op
	for i := 0; i < 32; i++ {
		plat := fmt.Sprintf("p%d", i)
		ops = append(ops,
			Op{Kind: OpRegister, Platform: plat, App: "a", BurstBytes: 1, DeadlineNS: 1e6},
			Op{Kind: OpWithdraw, Platform: plat, App: "a"},
		)
	}
	ds := f.Do(ops)
	if len(ds) != len(ops) {
		t.Fatalf("got %d decisions for %d ops", len(ds), len(ops))
	}
	for i := 0; i < len(ds); i += 2 {
		if !ds[i].OK || ds[i].Mode != 1 {
			t.Fatalf("op %d (register): %+v", i, ds[i])
		}
		if !ds[i+1].OK || ds[i+1].Mode != 0 {
			t.Fatalf("op %d (withdraw): %+v", i+1, ds[i+1])
		}
	}
	if got := f.Snapshot().Decisions; got != uint64(len(ops)) {
		t.Fatalf("snapshot decisions = %d, want %d", got, len(ops))
	}
}

func TestFleetDrainCompletesAllWork(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := New(Config{Shards: 2, QueueDepth: 64}, reg)

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ds := f.Do([]Op{{Kind: OpRegister,
					Platform: fmt.Sprintf("p%d", w), App: fmt.Sprintf("a%d", i),
					BurstBytes: 1, DeadlineNS: 0}})
				if len(ds) == 1 && !ds[0].Throttled {
					mu.Lock()
					completed++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	f.Drain()
	f.Drain() // idempotent

	if got := f.Snapshot().Decisions; got != uint64(completed) {
		t.Fatalf("drained fleet decided %d ops, but %d Do calls completed", got, completed)
	}
	if completed == 0 {
		t.Fatal("no work completed")
	}
}

func TestConfigValidateSpec(t *testing.T) {
	for _, bad := range []PlatformSpec{
		{Policy: "nope", TotalBytesPerNS: 1},
		{Policy: "symmetric", TotalBytesPerNS: 0},
		{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: -1},
		{Policy: "non-symmetric", TotalBytesPerNS: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	ok := PlatformSpec{Policy: "non-symmetric", TotalBytesPerNS: 1, CriticalBytesPerNS: 0.2}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", ok, err)
	}
}
