package admission

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/netcalc"
)

// TestDelayBoundCheckMatchesUncached pins the decider to netcalc, the
// analysed reference: its decisions agree with a netcalc evaluation of
// the same bounds on every step of a sweep across the feasibility
// boundary, including rejections and the violator it names, and its
// closed-form bound latency + burst/rate equals netcalc.DelayBound of
// the token bucket through the rate-latency server bit for bit.
func TestDelayBoundCheckMatchesUncached(t *testing.T) {
	const latencyNS = 150
	mode := []Member{
		{Name: "a", Crit: Critical, Requirement: Requirement{BurstBytes: 256, DeadlineNS: 2200}},
		{Name: "b", Requirement: Requirement{BurstBytes: 512, DeadlineNS: 2400}},
		{Name: "c", Requirement: Requirement{BurstBytes: 1024, DeadlineNS: 2600}},
	}
	ref := func(p RatePolicy, members []Member, critical int) string {
		critRate, beRate := p.ClassRates(len(members), critical)
		for _, m := range members {
			rate := classRate(m.Crit, critRate, beRate)
			alpha := netcalc.TokenBucket(m.BurstBytes, rate)
			if d := netcalc.DelayBound(alpha, netcalc.RateLatency(rate, latencyNS)); d > m.DeadlineNS {
				return m.Name
			}
		}
		return ""
	}
	d := NewDecider(Symmetric{TotalBytesPerNS: 1}, latencyNS)
	// Sweep the budget across the feasibility boundary in both
	// directions; acceptance must flip at exactly the same steps.
	for step := 0; step < 40; step++ {
		p := Symmetric{TotalBytesPerNS: 0.4 + 0.1*float64(step%20)}
		d.SetService(p, latencyNS)
		members := mode[:1+step%3]
		critical := 1
		got, want := d.Check(members, critical), ref(p, members, critical)
		if (got == "") != (want == "") || (want != "" && !strings.HasPrefix(got, want+" ")) {
			t.Fatalf("step %d (budget %.2f, %d apps): decider %q, reference violator %q",
				step, p.TotalBytesPerNS, len(members), got, want)
		}
	}

	// Property: on fixed-seed random (burst, rate, latency), zero burst
	// and zero latency included, and on both policies' class rates over
	// modes 1..512, the closed form is netcalc's bound bit for bit, and
	// the decider admits a deadline of exactly that bound and rejects
	// one ulp below it.
	check := func(burst, rate, lat float64) {
		t.Helper()
		closed := lat + burst/rate
		ref := netcalc.DelayBound(netcalc.TokenBucket(burst, rate), netcalc.RateLatency(rate, lat))
		if math.Float64bits(closed) != math.Float64bits(ref) {
			t.Fatalf("b=%v R=%v L=%v: closed form %v, netcalc %v", burst, rate, lat, closed, ref)
		}
		if ref <= 0 {
			return // a zero deadline declares no requirement
		}
		// A one-app symmetric mode assigns exactly rate.
		d.SetService(Symmetric{TotalBytesPerNS: rate}, lat)
		m := []Member{{Name: "x", Requirement: Requirement{BurstBytes: burst, DeadlineNS: ref}}}
		if got := d.Check(m, 0); got != "" {
			t.Fatalf("b=%v R=%v L=%v: deadline at the bound rejected: %s", burst, rate, lat, got)
		}
		m[0].DeadlineNS = math.Nextafter(ref, 0)
		if d.Check(m, 0) == "" {
			t.Fatalf("b=%v R=%v L=%v: deadline one ulp below the bound %v admitted", burst, rate, lat, ref)
		}
	}
	rnd := rand.New(rand.NewSource(16))
	for i := 0; i < 20000; i++ {
		burst := math.Ldexp(rnd.Float64(), rnd.Intn(24))
		rate := math.Ldexp(rnd.Float64()+0.5, rnd.Intn(16)-12)
		lat := rnd.Float64() * 1e4
		switch i % 4 {
		case 1:
			burst = 0
		case 2:
			lat = 0
		}
		check(burst, rate, lat)
	}
	policies := []RatePolicy{
		Symmetric{TotalBytesPerNS: 1.5},
		Symmetric{TotalBytesPerNS: 2.4},
		NonSymmetric{TotalBytesPerNS: 2.4, CriticalBytesPerNS: 0.2, FloorBytesPerNS: 0.01},
		NonSymmetric{TotalBytesPerNS: 1, CriticalBytesPerNS: 0.3, FloorBytesPerNS: 0.001},
	}
	for _, p := range policies {
		for mode := 1; mode <= 512; mode++ {
			for _, critical := range []int{0, 1, mode / 4, mode / 2} {
				critRate, beRate := p.ClassRates(mode, critical)
				for _, rate := range []float64{critRate, beRate} {
					for _, burst := range []float64{0, 64, 256, 1000, 4096} {
						for _, lat := range []float64{0, 120, latencyNS, 500} {
							check(burst, rate, lat)
						}
					}
				}
			}
		}
	}
}
