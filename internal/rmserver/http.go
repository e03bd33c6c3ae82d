package rmserver

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/wtrace"
)

// OpsContentType is the compact batch wire format: one operation per
// line, space-separated fields,
//
//	r <platform> <app> <b|c> <burst_bytes> <deadline_ns>
//	w <platform> <app>
//
// It exists because the 1M-decisions/sec path cannot afford a JSON
// token stream per operation: parsing a compact line is a handful of
// byte scans and two float parses, an order of magnitude cheaper.
const OpsContentType = "text/x-rmops"

// RetryAfterSeconds is the Retry-After hint attached to every 429.
const RetryAfterSeconds = 1

// Handler serves the admission-control API for a fleet:
//
//	POST /v1/register    one register op (JSON)
//	POST /v1/withdraw    one withdraw op (JSON)
//	POST /v1/modechange  one mode-change op (JSON)
//	POST /v1/batch       many ops (JSON array or text/x-rmops)
//	GET  /v1/stats       fleet counters + decision latency quantiles
//
// Overload surfaces as HTTP 429 with Retry-After: either the breaker
// is open (rejected before the body is read) or the target shard's
// queue was full (per-op Throttled decisions; the whole response is
// 429 when every op was shed).
//
// Every request passes the wall-clock tracer's head sampler: sampled
// requests carry a W3C traceparent (the inbound header's trace is
// joined when present, a fresh trace is rooted otherwise), record
// parse → queue_wait → decision (per-op children) → encode spans, and
// return their traceparent in the response. GET /v1/traces serves the
// tracer's bounded span ring as Chrome trace_event JSON.
type Handler struct {
	fleet  *Fleet
	tracer *wtrace.Tracer
	mux    *http.ServeMux
}

// NewHandler wraps a fleet in its HTTP API, with tracing disabled.
func NewHandler(f *Fleet) *Handler { return NewTracedHandler(f, nil) }

// NewTracedHandler wraps a fleet in its HTTP API with request tracing.
// tr may be nil or configured with Sample 0 — both leave the request
// path untraced at the cost of one nil/threshold check.
func NewTracedHandler(f *Fleet, tr *wtrace.Tracer) *Handler {
	h := &Handler{fleet: f, tracer: tr, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/register", h.single(OpRegister))
	h.mux.HandleFunc("POST /v1/withdraw", h.single(OpWithdraw))
	h.mux.HandleFunc("POST /v1/modechange", h.single(OpModeChange))
	h.mux.HandleFunc("POST /v1/batch", h.batch)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /v1/traces", h.traces)
	return h
}

// reqTraceKey carries the sampled request's trace context to endpoint
// handlers; absent (nil) for unsampled requests.
type reqTraceKey struct{}

func reqTraceFrom(ctx context.Context) *wtrace.ReqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*wtrace.ReqTrace)
	return rt
}

// statusWriter captures the response status for the root span. It is
// allocated only on traced requests.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: head sampling decision, breaker
// check, then the per-endpoint instrumentation. The untraced path is
// byte-for-byte the pre-tracing behavior plus one sampler check.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt := h.tracer.StartRequest(r.Header.Get("traceparent"))
	if strings.HasPrefix(r.URL.Path, "/v1/") && r.Method == http.MethodPost && !h.fleet.Allowed() {
		if rt != nil {
			w.Header().Set("traceparent", rt.Responseparent())
		}
		throttle(w, "breaker open")
		// Breaker rejections close the trace with a single root span:
		// nothing was parsed, queued, or decided.
		rt.Finish(rt.NowNS(), "endpoint", r.URL.Path, "status", "429", "outcome", "breaker_open")
		return
	}
	reg := h.fleet.Registry()
	start := time.Now()
	if rt == nil {
		h.mux.ServeHTTP(w, r)
		reg.Counter("rmserver_http_requests").Inc()
		reg.Histogram("rmserver_http_latency_ns").Record(time.Since(start).Nanoseconds())
		return
	}
	w.Header().Set("traceparent", rt.Responseparent())
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqTraceKey{}, rt)))
	lat := time.Since(start).Nanoseconds()
	reg.Counter("rmserver_http_requests").Inc()
	reg.Histogram("rmserver_http_latency_ns").RecordExemplar(lat, rt.TraceID(), start.UnixNano()+lat)
	rt.Finish(rt.NowNS(), "endpoint", r.URL.Path, "status", strconv.Itoa(sw.code))
}

// traces serves the live span ring as Chrome trace_event JSON. The
// payload loads directly in Perfetto and carries span-conservation
// totals ("spans", "spans_total", "dropped") as extra top-level keys.
func (h *Handler) traces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = h.tracer.WriteTraceEvents(w)
}

func throttle(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(Decision{Throttled: true, Reason: reason})
}

// wireOp is the JSON request shape for single ops and JSON batches.
type wireOp struct {
	Kind       string        `json:"kind,omitempty"` // batch only: register|withdraw|modechange
	Platform   string        `json:"platform"`
	App        string        `json:"app,omitempty"`
	Critical   bool          `json:"critical,omitempty"`
	BurstBytes float64       `json:"burst_bytes,omitempty"`
	DeadlineNS float64       `json:"deadline_ns,omitempty"`
	Spec       *PlatformSpec `json:"spec,omitempty"`
}

func (wo *wireOp) toOp(kind OpKind) (Op, error) {
	if wo.Platform == "" {
		return Op{}, fmt.Errorf("missing platform")
	}
	crit := admission.BestEffort
	if wo.Critical {
		crit = admission.Critical
	}
	op := Op{
		Kind:       kind,
		Platform:   wo.Platform,
		App:        wo.App,
		Crit:       crit,
		BurstBytes: wo.BurstBytes,
		DeadlineNS: wo.DeadlineNS,
		Spec:       wo.Spec,
	}
	switch kind {
	case OpRegister, OpWithdraw:
		if op.App == "" {
			return Op{}, fmt.Errorf("missing app")
		}
		if err := op.requirement().Validate(); err != nil {
			return Op{}, err
		}
	case OpModeChange:
		if op.Spec == nil {
			return Op{}, fmt.Errorf("missing spec")
		}
	}
	return op, nil
}

func kindOf(s string) (OpKind, error) {
	switch s {
	case "register":
		return OpRegister, nil
	case "withdraw":
		return OpWithdraw, nil
	case "modechange":
		return OpModeChange, nil
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func (h *Handler) single(kind OpKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt := reqTraceFrom(r.Context())
		parseStart := rt.NowNS()
		var wo wireOp
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&wo); err != nil {
			rt.Span(rt.Root(), "parse", parseStart, rt.NowNS(), "outcome", "error")
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		op, err := wo.toOp(kind)
		if err != nil {
			rt.Span(rt.Root(), "parse", parseStart, rt.NowNS(), "outcome", "error")
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		rt.Span(rt.Root(), "parse", parseStart, rt.NowNS(), "ops", "1")
		d := h.fleet.DoTraced([]Op{op}, rt)[0]
		if d.Throttled {
			throttle(w, d.Reason)
			return
		}
		encodeStart := rt.NowNS()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d)
		rt.Span(rt.Root(), "encode", encodeStart, rt.NowNS())
	}
}

// BatchSummary is the response to a batch request: per-outcome counts
// plus the decisions themselves (omitted for the compact format, whose
// callers are throughput harnesses that only want the tallies).
type BatchSummary struct {
	Ops       int        `json:"ops"`
	Admitted  int        `json:"admitted"`
	Rejected  int        `json:"rejected"`
	Throttled int        `json:"throttled"`
	Decisions []Decision `json:"decisions,omitempty"`
}

func summarize(ds []Decision) BatchSummary {
	s := BatchSummary{Ops: len(ds)}
	for i := range ds {
		switch {
		case ds[i].Throttled:
			s.Throttled++
		case ds[i].OK:
			s.Admitted++
		default:
			s.Rejected++
		}
	}
	return s
}

func (h *Handler) batch(w http.ResponseWriter, r *http.Request) {
	rt := reqTraceFrom(r.Context())
	parseStart := rt.NowNS()
	ct := r.Header.Get("Content-Type")
	var (
		ops     []Op
		err     error
		compact bool
	)
	if strings.HasPrefix(ct, OpsContentType) {
		compact = true
		ops, err = parseOpsText(r.Body, h.fleet.cfg.MaxBatch)
	} else {
		ops, err = parseOpsJSON(r.Body, h.fleet.cfg.MaxBatch)
	}
	if err != nil {
		rt.Span(rt.Root(), "parse", parseStart, rt.NowNS(), "outcome", "error")
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.Span(rt.Root(), "parse", parseStart, rt.NowNS(), "ops", strconv.Itoa(len(ops)))
	ds := h.fleet.DoTraced(ops, rt)
	sum := summarize(ds)
	if !compact {
		sum.Decisions = ds
	}
	encodeStart := rt.NowNS()
	w.Header().Set("Content-Type", "application/json")
	if sum.Throttled == sum.Ops && sum.Ops > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		w.WriteHeader(http.StatusTooManyRequests)
	}
	json.NewEncoder(w).Encode(sum)
	rt.Span(rt.Root(), "encode", encodeStart, rt.NowNS())
}

func parseOpsJSON(body io.Reader, maxBatch int) ([]Op, error) {
	var req struct {
		Ops []wireOp `json:"ops"`
	}
	if err := json.NewDecoder(io.LimitReader(body, 64<<20)).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Ops) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds max %d", len(req.Ops), maxBatch)
	}
	ops := make([]Op, 0, len(req.Ops))
	for i := range req.Ops {
		kind, err := kindOf(req.Ops[i].Kind)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		op, err := req.Ops[i].toOp(kind)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// parseOpsText decodes the compact format. Fields are split in place
// with byte scans; only burst and deadline pay a strconv parse.
func parseOpsText(body io.Reader, maxBatch int) ([]Op, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	var ops []Op
	line := 0
	for sc.Scan() {
		line++
		s := sc.Text()
		if s == "" || s[0] == '#' {
			continue
		}
		if len(ops) >= maxBatch {
			return nil, fmt.Errorf("batch exceeds max %d ops", maxBatch)
		}
		op, err := parseOpLine(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading batch: %w", err)
	}
	return ops, nil
}

func parseOpLine(s string) (Op, error) {
	next := func() string {
		for len(s) > 0 && s[0] == ' ' {
			s = s[1:]
		}
		i := strings.IndexByte(s, ' ')
		if i < 0 {
			f := s
			s = ""
			return f
		}
		f := s[:i]
		s = s[i+1:]
		return f
	}
	switch verb := next(); verb {
	case "r":
		op := Op{Kind: OpRegister, Platform: next(), App: next()}
		switch c := next(); c {
		case "c":
			op.Crit = admission.Critical
		case "b":
			op.Crit = admission.BestEffort
		default:
			return Op{}, fmt.Errorf("bad criticality %q", c)
		}
		var err error
		if op.BurstBytes, err = strconv.ParseFloat(next(), 64); err != nil {
			return Op{}, fmt.Errorf("bad burst: %w", err)
		}
		if op.DeadlineNS, err = strconv.ParseFloat(next(), 64); err != nil {
			return Op{}, fmt.Errorf("bad deadline: %w", err)
		}
		if op.Platform == "" || op.App == "" {
			return Op{}, fmt.Errorf("missing platform or app")
		}
		if err := op.requirement().Validate(); err != nil {
			return Op{}, err
		}
		return op, nil
	case "w":
		op := Op{Kind: OpWithdraw, Platform: next(), App: next()}
		if op.Platform == "" || op.App == "" {
			return Op{}, fmt.Errorf("missing platform or app")
		}
		return op, nil
	default:
		return Op{}, fmt.Errorf("unknown verb %q", verb)
	}
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h.fleet.Snapshot())
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
