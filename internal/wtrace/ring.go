package wtrace

import (
	"io"
	"strconv"
	"sync"
)

// ring is the bounded completed-span buffer behind /v1/traces. Writers
// (shard loops, the HTTP handler) push under a short critical section;
// a scrape snapshots the contents and renders outside the lock, so a
// slow reader never stalls the request path.
//
// The buffer is allocated on the first push: its spans hold pointers,
// so a live buffer is rescanned by every GC cycle, and a tracer that
// never samples (Sample 0, the default deployment) would otherwise pay
// that mark work on a core it shares with the decision path.
type ring struct {
	mu    sync.Mutex
	size  int
	buf   []Span // nil until the first push
	next  int    // next write position
	n     uint64 // total spans ever pushed
	wrapd bool   // buf has wrapped at least once
}

func newRing(size int) *ring {
	return &ring{size: size}
}

// push appends a span, overwriting the oldest when full. Reports
// whether an unscraped span was overwritten.
func (r *ring) push(s Span) (overwrote bool) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]Span, r.size)
	}
	overwrote = r.wrapd || r.n >= uint64(len(r.buf))
	r.buf[r.next] = s
	r.next++
	r.n++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapd = true
	}
	r.mu.Unlock()
	return overwrote
}

func (r *ring) total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// snapshot copies the live spans oldest-first and returns them with
// the total-ever-pushed count.
func (r *ring) snapshot() ([]Span, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapd {
		out := make([]Span, r.next)
		copy(out, r.buf[:r.next])
		return out, r.n
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out, r.n
}

// writeTraceEvents renders the ring as a Chrome trace_event JSON
// object. Beyond the standard "traceEvents"/"displayTimeUnit" keys —
// which make the payload load directly in Perfetto / chrome://tracing
// — it carries "spans" (in the payload), "spans_total" (ever
// recorded), and "dropped" (overwritten before scrape) so CI can
// assert span conservation with jq. Viewers ignore unknown top-level
// keys.
//
// Timestamps are microseconds relative to epochNS (trace_event "ts");
// span/trace identity and attributes ride in "args".
func (r *ring) writeTraceEvents(w io.Writer, epochNS int64) error {
	spans, n := r.snapshot()
	dropped := uint64(0)
	if n > uint64(len(spans)) {
		dropped = n - uint64(len(spans))
	}

	b := make([]byte, 0, 256+192*len(spans))
	b = append(b, `{"traceEvents":[`...)
	// Process metadata + one named thread lane per hash bucket: spans
	// of a trace share a lane, concurrent traces spread across lanes.
	b = append(b, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"rmd (wall clock)"}}`...)
	for lane := 0; lane < lanes; lane++ {
		b = append(b, `,{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(lane+1), 10)
		b = append(b, `,"args":{"name":"wtrace.lane`...)
		b = strconv.AppendInt(b, int64(lane), 10)
		b = append(b, `"}}`...)
	}
	for _, s := range spans {
		b = append(b, `,{"name":`...)
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, `,"ph":"X","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(laneOf(s.TraceID)+1), 10)
		b = append(b, `,"ts":`...)
		b = appendMicros(b, s.StartNS-epochNS)
		b = append(b, `,"dur":`...)
		b = appendMicros(b, s.DurNS())
		b = append(b, `,"args":{"trace_id":"`...)
		b = append(b, s.TraceID.String()...)
		b = append(b, `","span_id":"`...)
		b = append(b, s.SpanID.String()...)
		b = append(b, '"')
		if !s.Parent.IsZero() {
			b = append(b, `,"parent_id":"`...)
			b = append(b, s.Parent.String()...)
			b = append(b, '"')
		}
		for i := 0; i+1 < len(s.Attrs); i += 2 {
			b = append(b, ',')
			b = strconv.AppendQuote(b, s.Attrs[i])
			b = append(b, ':')
			b = strconv.AppendQuote(b, s.Attrs[i+1])
		}
		b = append(b, `}}`...)
	}
	b = append(b, `],"displayTimeUnit":"ns","spans":`...)
	b = strconv.AppendInt(b, int64(len(spans)), 10)
	b = append(b, `,"spans_total":`...)
	b = strconv.AppendUint(b, n, 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendUint(b, dropped, 10)
	b = append(b, `}`...)
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

// appendMicros renders ns as microseconds with 3 decimals (trace_event
// "ts"/"dur" are µs; the fraction keeps ns precision).
func appendMicros(b []byte, ns int64) []byte {
	neg := ns < 0
	if neg {
		ns = -ns
		b = append(b, '-')
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	b = append(b, '.')
	frac := ns % 1000
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}
