package rmserver

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wtrace"
)

// batchReq is one batch's worth of operations destined for a single
// shard. The fleet scatter-gathers: a client batch is split by the
// ring into at most one batchReq per shard, so the channel (and its
// synchronization cost) is crossed once per shard per batch, not once
// per operation — the amortization that carries the throughput target.
type batchReq struct {
	ops  []Op
	out  []Decision // len(ops), filled by the shard
	done chan<- *batchReq

	// enqueuedNS stamps when the batch entered the shard queue (Unix
	// ns), feeding the per-shard queue-wait histogram on every batch
	// and the queue_wait span on traced ones.
	enqueuedNS int64
	// rt/parent carry the sampled request's trace context into the
	// shard loop; rt is nil (free no-ops) for unsampled requests.
	rt     *wtrace.ReqTrace
	parent wtrace.SpanID
}

// shard is one RM loop: a bounded queue of batches drained by a
// single goroutine that owns every platform routed to it. Single
// ownership is the determinism guarantee — a platform's decisions are
// made in exactly the order its batches entered the queue, with no
// interleaving, mirroring how the simulated RM serializes actMsg and
// terMsg events.
type shard struct {
	id    int
	idStr string // label value, rendered once
	cfg   Config
	queue chan *batchReq
	stop  chan struct{}
	done  chan struct{}

	platforms map[string]*platform

	decisions  *telemetry.Counter
	batches    *telemetry.Counter
	rejects    *telemetry.Counter
	queueDepth *telemetry.Gauge
	latency    *telemetry.Histogram // per-op decision latency, ns

	// Per-shard labeled instruments (`...{shard="N"}`): the aggregate
	// families above answer "is the fleet keeping up", these answer
	// "which shard is the hot one" — consistent hashing skews, and a
	// single overloaded shard hides inside a healthy aggregate.
	myDecisions *telemetry.Counter
	myDepth     *telemetry.Gauge
	myWait      *telemetry.Histogram // batch queue wait, ns
}

func newShard(id int, cfg Config, reg *telemetry.Registry) *shard {
	label := `{shard="` + strconv.Itoa(id) + `"}`
	s := &shard{
		id:        id,
		idStr:     strconv.Itoa(id),
		cfg:       cfg,
		queue:     make(chan *batchReq, cfg.QueueDepth),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		platforms: make(map[string]*platform),

		decisions:  reg.Counter("rmserver_shard_decisions"),
		batches:    reg.Counter("rmserver_shard_batches"),
		rejects:    reg.Counter("rmserver_shard_rejects"),
		queueDepth: reg.Gauge("rmserver_shard_queue_depth"),
		latency:    reg.Histogram("rmserver_decision_latency_ns"),

		myDecisions: reg.Counter("rmserver_shard_decisions" + label),
		myDepth:     reg.Gauge("rmserver_shard_queue_depth" + label),
		myWait:      reg.Histogram("rmserver_shard_queue_wait_ns" + label),
	}
	go s.loop()
	return s
}

// tryEnqueue offers a batch to the shard without blocking. A full
// queue returns false — the caller sheds the work as a throttle. The
// queue is never blocked on: backpressure must surface to the client
// as 429, not as unbounded server-side latency.
func (s *shard) tryEnqueue(b *batchReq) bool {
	select {
	case s.queue <- b:
		depth := float64(len(s.queue))
		s.queueDepth.SetMax(depth)
		s.myDepth.SetMax(depth)
		return true
	default:
		return false
	}
}

// loop drains the queue until stop is closed AND the queue is empty:
// close(stop) is the drain signal, and every batch enqueued before it
// still completes — the no-dropped-in-flight guarantee behind graceful
// shutdown.
func (s *shard) loop() {
	defer close(s.done)
	for {
		select {
		case b := <-s.queue:
			s.process(b)
		case <-s.stop:
			for {
				select {
				case b := <-s.queue:
					s.process(b)
				default:
					return
				}
			}
		}
	}
}

func (s *shard) process(b *batchReq) {
	start := time.Now()
	startNS := start.UnixNano()
	if b.enqueuedNS > 0 {
		s.myWait.Record(startNS - b.enqueuedNS)
	}
	// Traced batches get a queue_wait span plus a decision span whose
	// id is allocated up front so per-op child spans can parent on it
	// before it closes.
	var decSpan wtrace.SpanID
	if b.rt != nil {
		b.rt.Span(b.parent, "queue_wait", b.enqueuedNS, startNS, "shard", s.idStr)
		decSpan = b.rt.NewSpanID()
	}
	for i := range b.ops {
		opStart := b.rt.NowNS() // 0 when untraced
		b.out[i] = s.decide(&b.ops[i])
		if s.cfg.DecisionDelay > 0 {
			time.Sleep(s.cfg.DecisionDelay)
		}
		if b.rt != nil {
			outcome := "rejected"
			if b.out[i].OK {
				outcome = "admitted"
			}
			b.rt.Span(decSpan, "op."+b.ops[i].Kind.String(), opStart, b.rt.NowNS(),
				"platform", b.ops[i].Platform, "outcome", outcome)
		}
	}
	s.batches.Inc()
	n := len(b.ops)
	s.decisions.Add(uint64(n))
	s.myDecisions.Add(uint64(n))
	if n > 0 {
		// One observation per batch at the amortized per-op cost: this
		// is the decision latency a client experiences on the batched
		// path, and a single Record keeps the histogram off the
		// per-operation hot path. Traced batches donate the trace id as
		// the histogram's exemplar, linking the p99 on /metrics to a
		// complete trace on /v1/traces.
		perOp := time.Since(start).Nanoseconds() / int64(n)
		if b.rt != nil {
			endNS := b.rt.NowNS()
			s.latency.RecordExemplar(perOp, b.rt.TraceID(), endNS)
			b.rt.RecordSpan(decSpan, b.parent, "decision", startNS, endNS,
				"shard", s.idStr, "ops", strconv.Itoa(n))
		} else {
			s.latency.Record(perOp)
		}
	}
	b.done <- b
}

// decide executes one operation against its platform. Platforms are
// created implicitly on first register with the fleet's default spec;
// withdraw/modechange against an unknown platform is a rejection, not
// a creation.
func (s *shard) decide(op *Op) Decision {
	p := s.platforms[op.Platform]
	switch op.Kind {
	case OpRegister:
		if p == nil {
			p = newPlatform(s.cfg.DefaultPlatform)
			s.platforms[op.Platform] = p
		}
		d := p.register(op)
		if !d.OK {
			s.rejects.Inc()
		}
		return d
	case OpWithdraw:
		if p == nil {
			s.rejects.Inc()
			return Decision{Reason: "unknown platform"}
		}
		return p.withdraw(op)
	case OpModeChange:
		if op.Spec == nil {
			s.rejects.Inc()
			return Decision{Mode: modeOf(p), Reason: "modechange without spec"}
		}
		if p == nil {
			p = newPlatform(s.cfg.DefaultPlatform)
			s.platforms[op.Platform] = p
		}
		d := p.modeChange(*op.Spec)
		if !d.OK {
			s.rejects.Inc()
		}
		return d
	}
	s.rejects.Inc()
	return Decision{Mode: modeOf(p), Reason: "unknown operation"}
}

func modeOf(p *platform) int {
	if p == nil {
		return 0
	}
	return len(p.apps)
}

// drain signals the loop to finish queued work and waits for it.
func (s *shard) drain() {
	close(s.stop)
	<-s.done
}
