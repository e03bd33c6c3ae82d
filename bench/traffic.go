package main

import (
	"encoding/json"
	"math/rand"
	"strconv"

	"repro/internal/admission"
	"repro/internal/rmserver"
)

// request is one HTTP request of a traffic mix and the operations it
// carries, which the replay check decides again in process.
type request struct {
	path  string
	ctype string
	body  []byte
	ops   []rmserver.Op
}

// generator yields one connection's request sequence. It depends only
// on the seed and the connection, never on replies, so a fresh
// generator reproduces the sequence for the replay check.
type generator interface {
	next() request
}

// platformName names platform j of connection c: connections own
// disjoint platforms, so each platform's decision sequence is fixed.
func platformName(c, j int) string { return "c" + strconv.Itoa(c) + "-p" + strconv.Itoa(j) }

func connRand(seed uint64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1000003 + int64(conn)))
}

// batchGen is rmd-batch: 512-op compact batches of register+withdraw
// pairs over the connection's 16 platforms. Each platform's mode goes
// 0 → 1 → 0, deadlines are loose, so every op is admitted and the bound
// memo always hits. Eight distinct bodies are rendered once and cycled.
type batchGen struct {
	reqs []request
	i    int
}

func newBatchGen(seed uint64, conn int) generator {
	const bodies, pairs, platforms = 8, 256, 16
	rng := connRand(seed, conn)
	g := &batchGen{}
	for b := 0; b < bodies; b++ {
		var req request
		req.path, req.ctype = "/v1/batch", rmserver.OpsContentType
		for i := 0; i < pairs; i++ {
			plat := platformName(conn, (i+b)%platforms)
			app := "a" + strconv.Itoa(i)
			burst := float64(int(64) << rng.Intn(4))
			reg := rmserver.Op{Kind: rmserver.OpRegister, Platform: plat, App: app,
				Crit: admission.BestEffort, BurstBytes: burst, DeadlineNS: 1e6}
			req.ops = append(req.ops, reg, rmserver.Op{Kind: rmserver.OpWithdraw, Platform: plat, App: app})
			req.body = appendRegister(req.body, reg)
			req.body = appendWithdraw(req.body, plat, app)
		}
		g.reqs = append(g.reqs, req)
	}
	return g
}

func (g *batchGen) next() request {
	r := g.reqs[g.i%len(g.reqs)]
	g.i++
	return r
}

// standingGen is rmd-standing: 64-op compact batches over the
// connection's 8 platforms, each holding a standing population of 48
// apps. Every register rotates out the platform's oldest app. Bursts
// vary and deadlines sit near the delay bound at 49 apps, so some
// registers are rejected (their later withdraw then finds nothing) and
// each register re-checks every admitted app's bound, mostly missing
// the memo into netcalc.
type standingGen struct {
	conn, rot int
	rng       *rand.Rand
	fifo      [][]string
	apps      int
}

const (
	standingPlatforms  = 8
	standingPopulation = 48
	standingRotations  = 32 // per request: 64 ops once populations are full
)

func newStandingGen(seed uint64, conn int) generator {
	return &standingGen{conn: conn, rng: connRand(seed, conn), fifo: make([][]string, standingPlatforms)}
}

func (g *standingGen) next() request {
	req := request{path: "/v1/batch", ctype: rmserver.OpsContentType}
	for k := 0; k < standingRotations; k++ {
		j := g.rot % standingPlatforms
		g.rot++
		plat := platformName(g.conn, j)
		app := "s" + strconv.Itoa(g.apps)
		g.apps++
		burst := float64(32 + g.rng.Intn(256))
		// The symmetric policy's bound at n apps is 500 + burst·n ns.
		deadline := float64(int((500 + burst*(standingPopulation+1)) * (0.9 + 0.7*g.rng.Float64())))
		reg := rmserver.Op{Kind: rmserver.OpRegister, Platform: plat, App: app,
			Crit: admission.BestEffort, BurstBytes: burst, DeadlineNS: deadline}
		req.ops = append(req.ops, reg)
		req.body = appendRegister(req.body, reg)
		g.fifo[j] = append(g.fifo[j], app)
		if len(g.fifo[j]) > standingPopulation {
			old := g.fifo[j][0]
			g.fifo[j] = g.fifo[j][1:]
			req.ops = append(req.ops, rmserver.Op{Kind: rmserver.OpWithdraw, Platform: plat, App: old})
			req.body = appendWithdraw(req.body, plat, old)
		}
	}
	return req
}

// smallGen is rmd-small: one JSON op per request on /v1/register and
// /v1/withdraw over the connection's 8 platforms (each holds up to 4
// apps), with every 100th request a /v1/modechange that toggles the
// platform's budget. Decisions are trivial; HTTP and JSON do the work.
type smallGen struct {
	conn, n int
	rng     *rand.Rand
	fifo    [][]string
	budget  []bool
}

const smallPlatforms = 8

func newSmallGen(seed uint64, conn int) generator {
	return &smallGen{conn: conn, rng: connRand(seed, conn),
		fifo: make([][]string, smallPlatforms), budget: make([]bool, smallPlatforms)}
}

// wireOp mirrors the service's JSON request shape.
type wireOp struct {
	Platform   string                 `json:"platform"`
	App        string                 `json:"app,omitempty"`
	BurstBytes float64                `json:"burst_bytes,omitempty"`
	DeadlineNS float64                `json:"deadline_ns,omitempty"`
	Spec       *rmserver.PlatformSpec `json:"spec,omitempty"`
}

func (g *smallGen) next() request {
	n := g.n
	g.n++
	j := n % smallPlatforms
	plat := platformName(g.conn, j)
	var (
		req request
		wo  = wireOp{Platform: plat}
		op  = rmserver.Op{Platform: plat, Crit: admission.BestEffort}
	)
	switch {
	case n%100 == 99:
		g.budget[j] = !g.budget[j]
		spec := rmserver.PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 500}
		if g.budget[j] {
			spec.TotalBytesPerNS = 1.25
		}
		req.path, op.Kind, op.Spec, wo.Spec = "/v1/modechange", rmserver.OpModeChange, &spec, &spec
	case len(g.fifo[j]) < 4:
		app := "m" + strconv.Itoa(n)
		g.fifo[j] = append(g.fifo[j], app)
		op.Kind, op.App, op.BurstBytes, op.DeadlineNS = rmserver.OpRegister, app, float64(64+g.rng.Intn(192)), 1e6
		wo.App, wo.BurstBytes, wo.DeadlineNS = op.App, op.BurstBytes, op.DeadlineNS
		req.path = "/v1/register"
	default:
		op.Kind, op.App = rmserver.OpWithdraw, g.fifo[j][0]
		g.fifo[j] = g.fifo[j][1:]
		wo.App = op.App
		req.path = "/v1/withdraw"
	}
	req.ctype = "application/json"
	req.body, _ = json.Marshal(wo) // a struct of strings and floats always marshals
	req.ops = []rmserver.Op{op}
	return req
}

func appendRegister(b []byte, op rmserver.Op) []byte {
	b = append(b, "r "...)
	b = append(b, op.Platform...)
	b = append(b, ' ')
	b = append(b, op.App...)
	b = append(b, " b "...)
	b = strconv.AppendFloat(b, op.BurstBytes, 'f', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, op.DeadlineNS, 'f', -1, 64)
	return append(b, '\n')
}

func appendWithdraw(b []byte, plat, app string) []byte {
	b = append(b, "w "...)
	b = append(b, plat...)
	b = append(b, ' ')
	b = append(b, app...)
	return append(b, '\n')
}
