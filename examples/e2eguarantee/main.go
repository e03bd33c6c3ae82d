// End-to-end guarantee walkthrough — the paper's Sections IV and V
// composed into one flow:
//
//  1. profile a critical application's memory traffic in isolation
//     (automated profiling, Section II),
//  2. fit a token-bucket traffic contract to the measurement,
//  3. build per-resource service curves: the NoC path and the DRAM
//     controller's WCD-derived curve (Section IV-A),
//  4. compose them and check the analytic end-to-end delay bound,
//  5. install the same check as the RM's online admission test
//     (Section V) and watch it reject an activation that would break
//     the guarantee.
package main

import (
	"fmt"
	"log"

	"repro/internal/admission"
	"repro/internal/autoconf"
	"repro/internal/core"
	"repro/internal/dram/wcd"
	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	// --- 1+2: profile and fit. ---
	build := func() (*core.Platform, error) {
		p, err := core.New(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		prof, err := trace.NewProfile(trace.ControlLoop, 0, 1)
		if err != nil {
			return nil, err
		}
		_, err = p.AddApp(core.AppConfig{
			Name: "motion-ctrl", Node: noc.Coord{X: 0, Y: 0}, Cluster: 0, Scheme: 1, Profile: prof,
		})
		return p, err
	}
	prof, err := autoconf.ProfileMemoryTraffic(build, "motion-ctrl", 2*sim.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled traffic contract: burst %.0f B, rate %.4f B/ns\n", prof.Burst, prof.Rate)

	// --- 3: per-resource service curves. ---
	// NoC: 3 hops at 16 B/ns, shared with at most 3 equal flows.
	mesh, err := noc.New(sim.NewEngine(), noc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	nocCurve := mesh.ServiceCurve(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 3, Y: 3}, 3)

	// DRAM: the Section IV-A service curve under 4 Gbps of write
	// interference, converted from requests to bytes (64B lines).
	params := wcd.DefaultParams().WithWriteRateGbps(4)
	dramReq, err := wcd.ServiceCurve(params, 32)
	if err != nil {
		log.Fatal(err)
	}
	dramBytes := netcalc.Scale(dramReq, 64)

	// --- 4: compose and bound. ---
	e2e := netcalc.Convolve(nocCurve, dramBytes)
	alpha := netcalc.TokenBucket(prof.Burst, prof.Rate)
	delay := netcalc.DelayBound(alpha, e2e)
	backlog := netcalc.BacklogBound(alpha, e2e)
	fmt.Printf("end-to-end bound through NoC + DRAM: delay %.1f ns, backlog %.0f B\n", delay, backlog)

	// --- 5: the same mathematics as the RM's online admission test. ---
	eng := sim.NewEngine()
	mesh2, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := admission.NewSystem(eng, mesh2, noc.Coord{X: 0, Y: 0},
		admission.Symmetric{TotalBytesPerNS: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	// The platform's fixed latency component: where the composed
	// service curve first rises above zero.
	platformLat := e2e.InverseStrict(0)
	// Deadline chosen so the burst needs at least 0.15 B/ns of
	// sustained service: the symmetric 0.8 B/ns budget then supports
	// motion-ctrl plus four best-effort apps, and the sixth activation
	// must be rejected.
	deadline := platformLat + prof.Burst/0.15
	reqs := map[string]admission.Requirement{
		"motion-ctrl": {BurstBytes: prof.Burst, DeadlineNS: deadline},
	}
	// The app's service is its assigned rate behind the platform's
	// fixed latency.
	sys.SetAdmissionCheck(reqs, platformLat)

	cl, err := sys.Client(noc.Coord{X: 1, Y: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.Register("motion-ctrl", admission.Critical); err != nil {
		log.Fatal(err)
	}
	_ = cl.Submit("motion-ctrl", &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
	eng.Run()
	fmt.Printf("motion-ctrl admitted: %v (deadline %.1f ns)\n", cl.AppActive("motion-ctrl"), deadline)

	// Best-effort joiners dilute the symmetric share until the bound
	// breaks; the RM rejects exactly there.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("be%d", i)
		bcl, err := sys.Client(noc.Coord{X: i % 4, Y: 2})
		if err != nil {
			log.Fatal(err)
		}
		if err := bcl.Register(name, admission.BestEffort); err != nil {
			log.Fatal(err)
		}
		_ = bcl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
		eng.Run()
		if bcl.AppActive(name) {
			fmt.Printf("  %s admitted (mode %d)\n", name, sys.RM().Mode())
		} else {
			fmt.Printf("  %s REJECTED: admitting it would break motion-ctrl's %.1f ns deadline\n",
				name, deadline)
			break
		}
	}
	fmt.Printf("final mode: %d applications\n", sys.RM().Mode())
}
