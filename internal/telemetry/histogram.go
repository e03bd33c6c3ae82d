package telemetry

import (
	"math"
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
// per power-of-two range, subBuckets counters each.
const numBlocks = numBuckets / subBuckets

// Compile-time check that Histogram.present has a bit per octave block.
var _ [64 - numBlocks]struct{}

// Histogram is a fixed-geometry log-scale histogram with O(1) Record
// and O(touched buckets) quantile queries. Negative values are clamped
// to zero. Counters live in per-octave blocks of subBuckets uint64s
// (256 B) allocated the first time a value lands in that octave and
// kept densely in octave order, with bit b of present set iff octave b
// has a block; numBlocks (59) fits the mask. An empty histogram is
// ~100 B holding no block pointer, and one that has seen k octaves
// adds k*256 B plus its k-entry block slice; Reset keeps the blocks.
// The zero value is ready to use, and NewHistogram returns a pointer
// to one. All methods are safe for concurrent use and no-ops on a nil
// receiver.
type Histogram struct {
	mu      sync.Mutex
	present uint64
	blocks  []*[subBuckets]uint64 // one per set bit of present, ascending octave
	count   uint64
	sum     int64
	min     int64
	max     int64
	ex      Exemplar
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

// recordLocked adds one non-negative observation, allocating the
// value's octave block on first use. Caller holds h.mu.
func (h *Histogram) recordLocked(v int64) {
	idx := bucketOf(uint64(v))
	bit := uint64(1) << (idx / subBuckets)
	pos := bits.OnesCount64(h.present & (bit - 1))
	if h.present&bit == 0 {
		h.present |= bit
		h.blocks = slices.Insert(h.blocks, pos, new([subBuckets]uint64))
	}
	h.blocks[pos][idx%subBuckets]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
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
// one walk over the allocated blocks; ps must be ascending. Caller
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
	// rank is the order statistic ps[i] asks for, worked out once per
	// p rather than once per bucket. p >= 1 never matches a bucket and
	// is answered by Max after the walk.
	rank := func() uint64 {
		if i < len(ps) && ps[i] < 1 {
			return uint64(ps[i] * float64(h.count-1))
		}
		return math.MaxUint64
	}
	var cum uint64
	next := rank()
	mask := h.present
	for _, blk := range h.blocks {
		b := bits.TrailingZeros64(mask)
		mask &= mask - 1
		for off, c := range blk {
			for cum += c; cum > next; next = rank() {
				out[i] = max(min(bucketUpper(b*subBuckets+off), h.max), h.min)
				i++
			}
		}
	}
	for ; i < len(ps); i++ {
		out[i] = h.max
	}
}

// Reset clears all recorded observations (and any held exemplar).
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	for _, blk := range h.blocks {
		*blk = [subBuckets]uint64{}
	}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
	h.ex = Exemplar{}
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
	if h.ex.TraceID == "" || v >= h.ex.Value || atUnixNano-h.ex.AtUnixNano > exemplarMaxAgeNS {
		h.ex = Exemplar{TraceID: traceID, Value: v, AtUnixNano: atUnixNano}
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
	return h.ex, h.ex.TraceID != ""
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
