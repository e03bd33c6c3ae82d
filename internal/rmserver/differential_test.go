package rmserver

import (
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The simulated RM (internal/admission over the NoC) and the service
// plane (rmserver.Fleet) implement the same Section V admission
// decision. This differential test drives both with identical
// fixed-seed register/withdraw streams and requires every operation to
// produce the same accept/reject outcome and the same post-operation
// mode, under both rate policies and in all-critical pools.

// diffApp is one application of a differential pool: its fixed
// criticality and traffic contract (deadline 0 = no analytic
// requirement).
type diffApp struct {
	name     string
	crit     admission.Criticality
	burst    float64
	deadline float64
}

// diffPool draws a fixed-seed pool of n applications. A contracted
// app's deadline is the bound it would have at a random threshold rate
// through a service of latency latencyNS, so it is admitted exactly
// while its assigned rate stays at or above that threshold; thresholds
// are continuous, so some assigned rates land close to them.
func diffPool(rnd *sim.Rand, n int, allCritical bool, latencyNS float64) []diffApp {
	bursts := []float64{64, 256, 512, 1024}
	pool := make([]diffApp, n)
	for i := range pool {
		crit := admission.BestEffort
		if allCritical || rnd.Intn(3) == 0 {
			crit = admission.Critical
		}
		a := diffApp{
			name:  fmt.Sprintf("app%d", i),
			crit:  crit,
			burst: bursts[rnd.Intn(len(bursts))],
		}
		if rnd.Intn(6) != 0 {
			threshold := 0.05 + 0.55*rnd.Float64()
			a.deadline = latencyNS + a.burst/threshold
		}
		pool[i] = a
	}
	return pool
}

// simRM is the simulated side: an admission.System on a 4x4 mesh with
// one registered client application per pool entry.
type simRM struct {
	eng     *sim.Engine
	sys     *admission.System
	clients []*admission.Client
	pool    []diffApp
}

func newSimRM(t *testing.T, spec PlatformSpec, pool []diffApp) *simRM {
	t.Helper()
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var policy admission.RatePolicy = admission.Symmetric{TotalBytesPerNS: spec.TotalBytesPerNS}
	if spec.Policy == "non-symmetric" {
		policy = admission.NonSymmetric{
			TotalBytesPerNS:    spec.TotalBytesPerNS,
			CriticalBytesPerNS: spec.CriticalBytesPerNS,
			FloorBytesPerNS:    spec.FloorBytesPerNS,
		}
	}
	sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, policy)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make(map[string]admission.Requirement)
	for _, a := range pool {
		if a.deadline > 0 {
			reqs[a.name] = admission.Requirement{BurstBytes: a.burst, DeadlineNS: a.deadline}
		}
	}
	installDelayBoundCheck(sys, reqs, spec.ServiceLatencyNS)
	s := &simRM{eng: eng, sys: sys, pool: pool}
	for i, a := range pool {
		cl, err := sys.Client(noc.Coord{X: i % 4, Y: (i / 4) % 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(a.name, a.crit); err != nil {
			t.Fatal(err)
		}
		s.clients = append(s.clients, cl)
	}
	return s
}

// do runs one operation on app i to completion and reports whether the
// RM committed it and the mode afterwards. A register of an active app
// or a withdraw of an inactive one never reaches the RM and counts as
// a rejection, like the service's duplicate/unknown rejections.
func (s *simRM) do(kind OpKind, i int) (ok bool, mode int) {
	before := s.sys.Stats()
	name := s.pool[i].name
	if kind == OpRegister {
		_ = s.clients[i].Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
	} else {
		_ = s.clients[i].Terminate(name)
	}
	s.eng.Run()
	after := s.sys.Stats()
	ok = after.Admitted+after.Terminated > before.Admitted+before.Terminated
	return ok, s.sys.RM().Mode()
}

func TestDifferentialSimulatedRMMatchesFleet(t *testing.T) {
	const (
		seeds   = 50
		poolN   = 12
		streamN = 150
	)
	symmetric := PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 1.6, ServiceLatencyNS: 100}
	nonSymmetric := PlatformSpec{Policy: "non-symmetric", TotalBytesPerNS: 1.6,
		CriticalBytesPerNS: 0.45, FloorBytesPerNS: 0.1, ServiceLatencyNS: 100}
	starving := nonSymmetric
	starving.FloorBytesPerNS = 0
	cases := []struct {
		name        string
		spec        PlatformSpec
		allCritical bool
	}{
		{"symmetric", symmetric, false},
		{"non-symmetric", nonSymmetric, false},
		{"non-symmetric/no-floor", starving, false},
		{"symmetric/all-critical", symmetric, true},
		{"non-symmetric/all-critical", nonSymmetric, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var admitted, boundRejected int
			for seed := uint64(1); seed <= seeds; seed++ {
				rnd := sim.NewRand(seed)
				pool := diffPool(rnd, poolN, c.allCritical, c.spec.ServiceLatencyNS)
				rm := newSimRM(t, c.spec, pool)
				f := New(Config{Shards: 1, DefaultPlatform: c.spec}, telemetry.NewRegistry())
				for k := 0; k < streamN; k++ {
					i := rnd.Intn(poolN)
					kind := OpRegister
					if rnd.Intn(5) < 2 {
						kind = OpWithdraw
					}
					a := pool[i]
					op := Op{Kind: kind, Platform: "p", App: a.name}
					if kind == OpRegister {
						op.Crit, op.BurstBytes, op.DeadlineNS = a.crit, a.burst, a.deadline
					}
					d := f.Do([]Op{op})[0]
					ok, mode := rm.do(kind, i)
					if d.OK != ok || d.Mode != mode {
						f.Drain()
						t.Fatalf("seed %d op %d (%s %s): fleet ok=%v mode=%d reason=%q, simulated RM ok=%v mode=%d",
							seed, k, kind, a.name, d.OK, d.Mode, d.Reason, ok, mode)
					}
					switch {
					case kind != OpRegister:
					case ok:
						admitted++
					case d.Reason != "duplicate registration":
						boundRejected++
					}
				}
				f.Drain()
			}
			// The streams must exercise both outcomes of the delay-bound
			// test, or agreement proves nothing about it.
			if admitted == 0 || boundRejected == 0 {
				t.Fatalf("degenerate stream: %d admitted, %d rejected by the bound test", admitted, boundRejected)
			}
			t.Logf("%d registers admitted, %d rejected by the bound test", admitted, boundRejected)
		})
	}
}
