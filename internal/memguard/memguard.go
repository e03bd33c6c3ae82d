// Package memguard implements software memory-bandwidth regulation in
// the style of MemGuard [6] as discussed in Section II of the paper:
// performance counters meter each regulated entity's memory traffic,
// an entity that exhausts its per-period budget is throttled (stalled)
// until the next replenishment, and every regulation action costs
// interrupt overhead — making the paper's point that "the more
// fine-granular the objects to be isolated get, the higher the
// overhead becomes" measurable.
//
// Entities are whatever the deployer isolates: cores, hypervisor
// partitions, or single applications. Budget periods are aligned to
// absolute virtual time (period k covers [k*P, (k+1)*P)); budgets
// replenish lazily so an idle system schedules no events, and
// regulation overhead is charged per period in which an entity is
// actually regulated.
package memguard

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterizes the regulator.
type Config struct {
	// Period is the regulation interval at which budgets replenish.
	Period sim.Duration
	// InterruptOverhead is the CPU cost charged per regulation
	// interrupt: one per entity per active period (budget
	// reprogramming) and one per throttle event (counter overflow).
	InterruptOverhead sim.Duration
}

// DefaultConfig returns 1 ms regulation periods with 2 us interrupts,
// typical of the original MemGuard deployment.
func DefaultConfig() Config {
	return Config{Period: sim.Millisecond, InterruptOverhead: 2 * sim.Microsecond}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("memguard: period must be positive, got %v", c.Period)
	}
	if c.InterruptOverhead < 0 {
		return fmt.Errorf("memguard: negative interrupt overhead")
	}
	return nil
}

// EntityStats reports one entity's regulation outcomes.
type EntityStats struct {
	BytesServed    uint64
	Requests       uint64
	ThrottleEvents uint64
	ThrottledTime  sim.Duration
}

// Entity is one traffic source's handle on its regulator, bound once
// by name (Regulator.Bind) and then metered through with no lookup per
// request. An entity without a budget passes its requests through.
type Entity struct {
	r         *Regulator
	name      string
	budget    int // bytes per period; 0 = unregulated
	left      int
	periodIdx int64 // which absolute period `left` belongs to

	throttled   bool
	throttledAt sim.Time
	// drainArmed marks the periodic drain as running; drainEvery is
	// its kernel handle and drainFn the callback it fires, built on
	// the entity's first throttle (the replenish loop reuses one
	// pooled event record for as long as the entity stays throttled).
	drainArmed bool
	drainEvery sim.Handle
	drainFn    sim.Event
	waiters    []waiter
	stats      EntityStats

	// mon is the entity's "mem:<name>" monitor, resolved on its first
	// request while the regulator has a monitor set.
	mon *telemetry.Monitor
}

type waiter struct {
	bytes int
	at    sim.Time // submission time, for stall-span telemetry
	then  func()
}

// Regulator meters and throttles entities in virtual time.
type Regulator struct {
	eng      *sim.Engine
	cfg      Config
	entities map[string]*Entity
	// free is the rest of the array Reserve allocated; Bind hands
	// entities out from it before allocating one by one.
	free     []Entity
	budgeted int

	overhead sim.Duration
	tel      *telemetryState
}

// New builds a regulator.
func New(eng *sim.Engine, cfg Config) (*Regulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Regulator{eng: eng, cfg: cfg, entities: make(map[string]*Entity)}, nil
}

// Reserve sizes an empty regulator for n entities: the name table does
// not rehash and Bind hands the n out from one array. On a regulator
// that already holds entities it does nothing.
func (r *Regulator) Reserve(n int) {
	if len(r.entities) == 0 {
		r.entities = make(map[string]*Entity, n)
		r.free = make([]Entity, n)
	}
}

// Bind returns name's entity, creating it without a budget (its
// requests pass through) on first use.
func (r *Regulator) Bind(name string) *Entity {
	if e := r.entities[name]; e != nil {
		return e
	}
	var e *Entity
	if len(r.free) > 0 {
		e, r.free = &r.free[0], r.free[1:]
	} else {
		e = new(Entity)
	}
	e.r, e.name = r, name
	r.entities[name] = e
	return e
}

// SetBudget installs (or updates) the entity's per-period byte budget.
// Its first budget starts metering in the current period.
func (e *Entity) SetBudget(bytesPerPeriod int) error {
	if e.name == "" {
		return fmt.Errorf("memguard: empty entity name")
	}
	if bytesPerPeriod <= 0 {
		return fmt.Errorf("memguard: budget must be positive, got %d", bytesPerPeriod)
	}
	if e.budget == 0 {
		e.periodIdx = e.r.periodOf(e.r.eng.Now())
		e.r.budgeted++
	}
	e.budget = bytesPerPeriod
	e.left = bytesPerPeriod
	return nil
}

// Budget reports the entity's bytes-per-period budget, with ok false
// while it is unregulated — the budgeted bandwidth the runtime auditor
// captures at app registration.
func (e *Entity) Budget() (bytesPerPeriod int, ok bool) { return e.budget, e.budget > 0 }

// Stats returns a snapshot of the entity's regulation outcomes.
func (e *Entity) Stats() EntityStats { return e.stats }

// Stats returns a snapshot for the named entity.
func (r *Regulator) Stats(name string) EntityStats {
	if e := r.entities[name]; e != nil {
		return e.stats
	}
	return EntityStats{}
}

// Overhead returns the total CPU time spent on regulation interrupts.
func (r *Regulator) Overhead() sim.Duration { return r.overhead }

// Period returns the regulation interval.
func (r *Regulator) Period() sim.Duration { return r.cfg.Period }

// Entities returns the number of regulated (budgeted) entities.
func (r *Regulator) Entities() int { return r.budgeted }

func (r *Regulator) periodOf(t sim.Time) int64 { return int64(t) / int64(r.cfg.Period) }

// catchUp lazily replenishes an entity's budget when period
// boundaries have passed, charging one reprogramming interrupt per
// elapsed active period (capped at one after long idle gaps, since a
// real deployment would disable the timer for inactive cores).
func (r *Regulator) catchUp(e *Entity, now sim.Time) {
	idx := r.periodOf(now)
	if idx <= e.periodIdx {
		return
	}
	gap := idx - e.periodIdx
	if gap > 1 {
		gap = 1
	}
	r.overhead += sim.Duration(gap) * r.cfg.InterruptOverhead
	e.periodIdx = idx
	e.left = e.budget
}

// Request issues a memory transfer on behalf of the entity. If it has
// budget, `then` runs immediately (the access proceeds to the memory
// system); otherwise the entity is throttled and `then` runs after the
// replenishment that re-funds it. Unregulated entities pass through.
func (e *Entity) Request(bytes int, then func()) error {
	if bytes <= 0 {
		return fmt.Errorf("memguard: request needs positive size, got %d", bytes)
	}
	r := e.r
	now := r.eng.Now()
	if r.tel != nil {
		r.traceSubmit(e)
	}
	if e.budget == 0 {
		if r.tel != nil {
			r.traceGrant(e, bytes, now, now)
		}
		if then != nil {
			then()
		}
		return nil
	}
	r.catchUp(e, now)
	e.stats.Requests++
	if !e.throttled && e.left >= bytes {
		e.left -= bytes
		e.stats.BytesServed += uint64(bytes)
		if r.tel != nil {
			r.traceGrant(e, bytes, now, now)
		}
		if then != nil {
			then()
		}
		return nil
	}
	// Counter overflow: throttle until the next period boundary. The
	// overflow interrupt itself costs overhead.
	if !e.throttled {
		e.throttled = true
		e.throttledAt = now
		e.stats.ThrottleEvents++
		r.overhead += r.cfg.InterruptOverhead
		if r.tel != nil {
			r.traceThrottle(e, now)
		}
	}
	e.waiters = append(e.waiters, waiter{bytes: bytes, at: now, then: then})
	r.armDrain(e)
	return nil
}

// armDrain starts the entity's periodic drain at its next period
// boundary. The drain is an Every event: while the entity stays over
// budget it reschedules in place, one period at a time, on a single
// pooled kernel record; drain cancels it once the backlog clears.
func (r *Regulator) armDrain(e *Entity) {
	if e.drainArmed {
		return
	}
	if e.drainFn == nil {
		e.drainFn = func() { r.drain(e) }
	}
	e.drainArmed = true
	boundary := sim.Time((e.periodIdx + 1) * int64(r.cfg.Period))
	e.drainEvery = r.eng.EveryAt(boundary, r.cfg.Period, e.drainFn)
}

// drain resumes a throttled entity at a period boundary and serves its
// queued requests while the fresh budget lasts.
func (r *Regulator) drain(e *Entity) {
	now := r.eng.Now()
	r.catchUp(e, now)
	if e.throttled {
		e.stats.ThrottledTime += now - e.throttledAt
		e.throttled = false
		if r.tel != nil {
			r.traceReplenish(e, now)
		}
	}
	for len(e.waiters) > 0 {
		w := e.waiters[0]
		if w.bytes > e.budget {
			// Larger than a whole period's budget: let it through at
			// this boundary, consuming the full period (a real
			// deployment would stripe it across periods; the
			// bandwidth accounting is the same).
			e.waiters = e.waiters[1:]
			e.left = 0
			e.stats.BytesServed += uint64(w.bytes)
			if r.tel != nil {
				r.traceGrant(e, w.bytes, w.at, now)
			}
			if w.then != nil {
				w.then()
			}
			continue
		}
		if e.left < w.bytes {
			// Still over budget: remain throttled into the next
			// period. The periodic drain stays armed — the kernel
			// reschedules it in place one period out.
			e.throttled = true
			e.throttledAt = now
			e.stats.ThrottleEvents++
			r.overhead += r.cfg.InterruptOverhead
			if r.tel != nil {
				r.traceThrottle(e, now)
			}
			return
		}
		e.waiters = e.waiters[1:]
		e.left -= w.bytes
		e.stats.BytesServed += uint64(w.bytes)
		if r.tel != nil {
			r.traceGrant(e, w.bytes, w.at, now)
		}
		if w.then != nil {
			w.then()
		}
	}
	// Backlog cleared: stop the periodic drain until the entity is
	// throttled again.
	e.drainArmed = false
	e.drainEvery.Cancel()
}
