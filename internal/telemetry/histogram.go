package telemetry

import (
	"math/bits"
	"slices"
	"sync"
)

// Histogram bucket geometry: values below subBuckets land in exact
// unit-wide buckets; above that, each power-of-two range is divided
// into subBuckets linear sub-buckets (the HdrHistogram layout). The
// quantile a bucket reports is its upper bound, so a reported
// quantile never under-estimates the true order statistic and
// over-estimates it by at most a factor of 1 + 1/subBuckets.
//
// Why the bound holds: a sub-bucket in the power-of-two block with
// shift s spans [lower, lower + 2^s - 1] with lower = (off +
// subBuckets) << s, so lower >= subBuckets * 2^s and the bucket width
// 2^s - 1 < lower/subBuckets. The true order statistic x lies in the
// bucket, hence x >= lower, and the reported upper bound is at most
// x + lower/subBuckets <= x * (1 + 1/subBuckets). Three cases are
// exact, not merely bounded: values below subBuckets (unit-wide
// buckets), p <= 0 (tracked Min), and p >= 1 (tracked Max).
// TestHistogramQuantileErrorBoundProperty pins all of this against a
// sorted-sample oracle across distributions.
const (
	log2SubBuckets = 5
	subBuckets     = 1 << log2SubBuckets // 32

	// numBuckets covers the full non-negative int64 range:
	// 32 exact buckets + 59 power-of-two blocks of 32 sub-buckets.
	numBuckets = (63-log2SubBuckets)*subBuckets + subBuckets

	// MaxQuantileRelativeError bounds how far above the true order
	// statistic a reported quantile can be: for any p in (0,1), with x
	// the exact nearest-rank order statistic,
	//
	//	x <= Quantile(p) <= x * (1 + MaxQuantileRelativeError)
	//
	// i.e. at most one part in subBuckets (about 3.1%) high, never
	// low. SLOs gating on histogram percentiles (p99 decision latency
	// and the like) therefore fail conservatively: a reported value
	// inside the goal means the true percentile is inside it too.
	MaxQuantileRelativeError = 1.0 / subBuckets
)

// numBlocks is the number of octave blocks: the exact block plus one
// per power-of-two range, subBuckets sub-buckets each.
const numBlocks = numBuckets / subBuckets

// Compile-time checks that Histogram.present has a bit per octave
// block and a header's low half a bit per sub-bucket.
var (
	_ [64 - numBlocks]struct{}
	_ [32 - subBuckets]struct{}
)

// Histogram is a fixed-geometry log-scale histogram with O(1) Record
// and O(touched buckets) quantile queries. Negative values are clamped
// to zero. It holds one counter per sub-bucket that has seen a value,
// indexed in two levels: bit b of present is set iff octave block b
// (numBlocks = 59 fit the mask) has a touched sub-bucket, and idx
// starts with one header per set bit of present, in ascending octave
// order, followed by the counters, dense in ascending bucket order. A
// header's low 32 bits are its octave's sub-bucket mask and its high
// 32 bits the position in idx of the octave's first counter, so Record
// finds a counter with two popcounts. An empty histogram is 80 B
// holding no slice; one that has touched k sub-buckets in j octaves
// adds j+k 8 B words plus append's growth slack. Reset zeroes the
// counters and keeps the index. The zero value is ready to use, and
// NewHistogram returns a pointer to one. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Histogram struct {
	mu      sync.Mutex
	present uint64
	idx     []uint64 // headers, one per set bit of present, then counters
	count   uint64
	sum     int64
	min     int64
	max     int64
	// ex is held out of line: nil until RecordExemplar first offers
	// one, then overwritten in place. Only traced service histograms
	// ever hold one.
	ex *Exemplar
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 1 // exponent, >= log2SubBuckets
	shift := e - log2SubBuckets
	return (e-log2SubBuckets+1)*subBuckets + int(v>>uint(shift)) - subBuckets
}

// bucketUpper returns the largest value mapping to bucket idx.
func bucketUpper(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	block := idx / subBuckets // >= 1
	off := idx % subBuckets
	shift := uint(block - 1)
	lower := (uint64(off) + subBuckets) << shift
	return int64(lower + (uint64(1) << shift) - 1)
}

// Record adds one observation in O(1).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.recordLocked(v)
	h.mu.Unlock()
}

// recordLocked adds one non-negative observation, inserting the
// value's counter on first use. Caller holds h.mu.
func (h *Histogram) recordLocked(v int64) {
	b := bucketOf(uint64(v))
	obit := uint64(1) << (b / subBuckets)
	sbit := uint32(1) << (b % subBuckets)
	o := bits.OnesCount64(h.present & (obit - 1))
	var hdr uint64
	if h.present&obit != 0 {
		hdr = h.idx[o]
	}
	if uint32(hdr)&sbit == 0 {
		h.insert(obit, sbit, o)
		hdr = h.idx[o]
	}
	h.idx[int(hdr>>32)+bits.OnesCount32(uint32(hdr)&(sbit-1))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// insert adds a zero counter for sub-bucket sbit of octave obit, whose
// header is (or, if the octave is new, goes) at idx[o], and moves the
// first-counter positions of the headers it shifts. Caller holds h.mu.
func (h *Histogram) insert(obit uint64, sbit uint32, o int) {
	if h.present&obit == 0 {
		// The new octave's counters go where the next octave's start,
		// or at the end; the new header then shifts every counter up
		// one slot.
		first := uint64(len(h.idx))
		if h.present > obit {
			first = h.idx[o] >> 32
		}
		h.present |= obit
		h.idx = slices.Insert(h.idx, o, first<<32)
		for j := range bits.OnesCount64(h.present) {
			h.idx[j] += 1 << 32
		}
	}
	hdr := h.idx[o]
	h.idx = slices.Insert(h.idx, int(hdr>>32)+bits.OnesCount32(uint32(hdr)&(sbit-1)), 0)
	h.idx[o] |= uint64(sbit)
	for j := o + 1; j < bits.OnesCount64(h.present); j++ {
		h.idx[j] += 1 << 32
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min returns the smallest recorded observation (exact), or 0 when
// empty.
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest recorded observation (exact), or 0 when
// empty.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the p-quantile (0..1) of the recorded
// observations: the upper bound of the bucket holding the
// floor(p*(count-1))-th order statistic, clamped to [Min, Max]. It
// matches the nearest-rank convention of sorting the samples and
// indexing at int(p*(len-1)), to within MaxQuantileRelativeError.
// p <= 0 returns Min exactly; p >= 1 returns Max exactly.
func (h *Histogram) Quantile(p float64) int64 {
	if h == nil {
		return 0
	}
	var q [1]int64
	h.mu.Lock()
	h.quantilesLocked([]float64{p}, q[:])
	h.mu.Unlock()
	return q[0]
}

// quantilesLocked sets out[i] to the ps[i]-quantile (see Quantile) in
// one walk over the touched sub-buckets; ps must be ascending. Caller
// holds h.mu.
func (h *Histogram) quantilesLocked(ps []float64, out []int64) {
	if h.count == 0 {
		clear(out)
		return
	}
	i := 0
	for ; i < len(ps) && ps[i] <= 0; i++ {
		out[i] = h.min
	}
	n := bits.OnesCount64(h.present)
	counters := h.idx[n:]
	var cum uint64
	// counters[:j] are summed into cum; idx[o] is the header of the
	// octave holding counters[j-1], and that octave is mask's lowest bit.
	j, o, mask := 0, 0, h.present
	for ; i < len(ps) && ps[i] < 1; i++ {
		// The counters sum to count, so the walk stops at the counter
		// holding the order statistic, before running off the end.
		for rank := uint64(ps[i] * float64(h.count-1)); cum <= rank; j++ {
			cum += counters[j]
		}
		for o+1 < n && int(h.idx[o+1]>>32) < n+j {
			o++
			mask &= mask - 1
		}
		sub := uint32(h.idx[o])
		for k := n + j - 1 - int(h.idx[o]>>32); k > 0; k-- {
			sub &= sub - 1
		}
		b := bits.TrailingZeros64(mask)*subBuckets + bits.TrailingZeros32(sub)
		out[i] = max(min(bucketUpper(b), h.max), h.min)
	}
	for ; i < len(ps); i++ {
		out[i] = h.max
	}
}

// Reset clears all recorded observations (and any held exemplar),
// keeping the index of touched sub-buckets.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	clear(h.idx[bits.OnesCount64(h.present):])
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
	if h.ex != nil {
		*h.ex = Exemplar{}
	}
	h.mu.Unlock()
}

// Exemplar links one recorded observation to the distributed trace
// that produced it, per the OpenMetrics exemplar mechanism: the
// exposition renders it after the p99 quantile line as
// `# {trace_id="..."} value timestamp`, so a tail-latency outlier on
// /metrics resolves directly to its multi-span trace on /v1/traces.
type Exemplar struct {
	TraceID    string
	Value      int64
	AtUnixNano int64
}

// exemplarMaxAgeNS bounds how long a large-but-stale exemplar can
// shadow fresher samples: after ~10s of wall time any new traced
// sample replaces it, so the exposed exemplar always points at a
// *recent* trace still likely to be in the bounded trace ring.
const exemplarMaxAgeNS = int64(10_000_000_000)

// RecordExemplar adds one observation (like Record) and offers it as
// the histogram's exemplar. The slot keeps the slowest recent sample:
// a candidate wins if the slot is empty, its value is >= the held one,
// or the held one has aged out. Callers without a trace in hand should
// use Record; an empty traceID records the value but never the
// exemplar.
func (h *Histogram) RecordExemplar(v int64, traceID string, atUnixNano int64) {
	if h == nil {
		return
	}
	if traceID == "" {
		h.Record(v)
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.recordLocked(v)
	if h.ex == nil {
		h.ex = new(Exemplar)
	}
	if h.ex.TraceID == "" || v >= h.ex.Value || atUnixNano-h.ex.AtUnixNano > exemplarMaxAgeNS {
		*h.ex = Exemplar{TraceID: traceID, Value: v, AtUnixNano: atUnixNano}
	}
	h.mu.Unlock()
}

// Exemplar returns the held exemplar, if any.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ex == nil || h.ex.TraceID == "" {
		return Exemplar{}, false
	}
	return *h.ex, true
}

// Summary is a point-in-time digest of a histogram, the shape the
// registry serializes.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Summarize digests the histogram under one lock and one bucket walk,
// so the fields describe a single moment even while another goroutine
// records; on a quiescent histogram they equal the separate accessors.
func (h *Histogram) Summarize() Summary {
	if h == nil {
		return Summary{}
	}
	var q [3]int64
	h.mu.Lock()
	defer h.mu.Unlock()
	h.quantilesLocked([]float64{0.50, 0.95, 0.99}, q[:])
	s := Summary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, P50: q[0], P95: q[1], P99: q[2]}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	return s
}
