package telemetry

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram not zero: count=%d q50=%d mean=%g",
			h.Count(), h.Quantile(0.5), h.Mean())
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(42) // must not panic
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.9) != 0 || h.Max() != 0 {
		t.Error("nil histogram should read as zero")
	}
	if (h.Summarize() != Summary{}) {
		t.Error("nil histogram summary not zero")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	// Values below subBuckets land in unit buckets: quantiles exact.
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0, 0}, {0.5, 15}, {1, 31}} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("Quantile(%g) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Record(-5) // clamps to 0
	h.Record(1 << 62)
	if h.Min() != 0 {
		t.Errorf("Min = %d, want 0 (negative clamped)", h.Min())
	}
	if h.Max() != 1<<62 {
		t.Errorf("Max = %d", h.Max())
	}
	if h.Quantile(1) != 1<<62 || h.Quantile(0) != 0 {
		t.Errorf("extreme quantiles: q0=%d q1=%d", h.Quantile(0), h.Quantile(1))
	}
}

// TestHistogramQuantileErrorBound checks the log-bucket relative-error
// guarantee against an exact sorted-sample oracle: for every p the
// histogram quantile is >= the exact nearest-rank order statistic and
// <= (1 + MaxQuantileRelativeError) times it.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rnd := sim.NewRand(7)
	h := NewHistogram()
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mix magnitudes across the log range, like latency samples.
		v := int64(rnd.Intn(1 << uint(5+rnd.Intn(30))))
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		exact := samples[int(p*float64(len(samples)-1))]
		got := h.Quantile(p)
		if got < exact {
			t.Errorf("Quantile(%g) = %d under-estimates exact %d", p, got, exact)
		}
		bound := float64(exact)*(1+MaxQuantileRelativeError) + 1
		if float64(got) > bound {
			t.Errorf("Quantile(%g) = %d exceeds error bound %.1f (exact %d)", p, got, bound, exact)
		}
	}
	if h.Quantile(1) != samples[len(samples)-1] {
		t.Errorf("Quantile(1) = %d, want exact max %d", h.Quantile(1), samples[len(samples)-1])
	}
	if h.Quantile(0) != samples[0] {
		t.Errorf("Quantile(0) = %d, want exact min %d", h.Quantile(0), samples[0])
	}
}

// TestHistogramQuantileErrorBoundProperty pins the documented
// guarantee as a property across distributions: for every p, the
// reported quantile is within [x, x*(1+MaxQuantileRelativeError)] of
// the exact nearest-rank order statistic x — with no slack term — and
// is exact below subBuckets and at p <= 0 / p >= 1.
func TestHistogramQuantileErrorBoundProperty(t *testing.T) {
	distributions := []struct {
		name string
		gen  func(rnd *sim.Rand) int64
	}{
		{"uniform", func(rnd *sim.Rand) int64 { return int64(rnd.Intn(1_000_000)) }},
		{"log-uniform", func(rnd *sim.Rand) int64 {
			return int64(rnd.Intn(1 << uint(1+rnd.Intn(40))))
		}},
		{"constant", func(*sim.Rand) int64 { return 123_456 }},
		{"small-exact", func(rnd *sim.Rand) int64 { return int64(rnd.Intn(subBuckets)) }},
		{"bimodal", func(rnd *sim.Rand) int64 {
			if rnd.Intn(10) == 0 {
				return int64(5_000_000 + rnd.Intn(1000)) // tail mode
			}
			return int64(100 + rnd.Intn(50))
		}},
	}
	quantiles := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}
	for di, d := range distributions {
		t.Run(d.name, func(t *testing.T) {
			rnd := sim.NewRand(uint64(1000 + di))
			h := NewHistogram()
			samples := make([]int64, 0, 10000)
			for i := 0; i < 10000; i++ {
				v := d.gen(rnd)
				h.Record(v)
				samples = append(samples, v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, p := range quantiles {
				exact := samples[int(p*float64(len(samples)-1))]
				got := h.Quantile(p)
				if got < exact {
					t.Errorf("Quantile(%g) = %d under-estimates exact %d", p, got, exact)
				}
				if float64(got) > float64(exact)*(1+MaxQuantileRelativeError) {
					t.Errorf("Quantile(%g) = %d exceeds %d * (1+1/%d)", p, got, exact, subBuckets)
				}
				if exact < subBuckets && got != exact {
					t.Errorf("Quantile(%g) = %d not exact below subBuckets (want %d)", p, got, exact)
				}
			}
			if h.Quantile(0) != samples[0] || h.Quantile(-0.5) != samples[0] {
				t.Errorf("Quantile(<=0) = %d, want exact min %d", h.Quantile(0), samples[0])
			}
			if h.Quantile(1) != samples[len(samples)-1] || h.Quantile(1.5) != samples[len(samples)-1] {
				t.Errorf("Quantile(>=1) = %d, want exact max %d", h.Quantile(1), samples[len(samples)-1])
			}
		})
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	rnd := sim.NewRand(3)
	h := NewHistogram()
	for i := 0; i < 5000; i++ {
		h.Record(int64(rnd.Intn(1_000_000)))
	}
	prev := int64(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("quantiles not monotone: q(%.2f)=%d < %d", p, q, prev)
		}
		prev = q
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(int64(i) * 100)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("Reset left state: %+v", h.Summarize())
	}
	h.Record(7)
	if h.Count() != 1 || h.Max() != 7 || h.Min() != 7 {
		t.Error("histogram unusable after Reset")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back into that bucket, and
	// bucket indices must be monotone in the value.
	for idx := 0; idx < numBuckets; idx++ {
		up := bucketUpper(idx)
		if got := bucketOf(uint64(up)); got != idx {
			t.Fatalf("bucketOf(bucketUpper(%d)=%d) = %d", idx, up, got)
		}
	}
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 20, 1<<62 + 12345} {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf(%d)=%d not monotone (prev %d)", v, idx, prev)
		}
		prev = idx
	}
}

// TestHistogramFootprint pins the compact layout: an empty histogram
// is a presence mask, one index-slice header, a few words and a nil
// exemplar pointer, not a pointer per octave or an exemplar inline.
func TestHistogramFootprint(t *testing.T) {
	size := unsafe.Sizeof(Histogram{})
	t.Logf("unsafe.Sizeof(Histogram{}) = %d B", size)
	if size > 80 {
		t.Errorf("unsafe.Sizeof(Histogram{}) = %d B, want <= 80", size)
	}
}

// denseHistogram is the reference model of the sub-bucket index: one
// directly indexed counter per bucket, plus a flag per bucket that has
// ever seen a value (Reset keeps the flags, as the index keeps its
// counters).
type denseHistogram struct {
	counts          [numBuckets]uint64
	touched         [numBuckets]bool
	count           uint64
	sum, minV, maxV int64
	ex              Exemplar
}

func (d *denseHistogram) record(v int64) {
	v = max(v, 0)
	idx := bucketOf(uint64(v))
	d.counts[idx]++
	d.touched[idx] = true
	if d.count == 0 || v < d.minV {
		d.minV = v
	}
	if d.count == 0 || v > d.maxV {
		d.maxV = v
	}
	d.count++
	d.sum += v
}

func (d *denseHistogram) recordExemplar(v int64, traceID string, at int64) {
	d.record(v)
	v = max(v, 0)
	if traceID != "" && (d.ex.TraceID == "" || v >= d.ex.Value || at-d.ex.AtUnixNano > exemplarMaxAgeNS) {
		d.ex = Exemplar{TraceID: traceID, Value: v, AtUnixNano: at}
	}
}

func (d *denseHistogram) quantile(p float64) int64 {
	switch {
	case d.count == 0:
		return 0
	case p <= 0:
		return d.minV
	case p >= 1:
		return d.maxV
	}
	target := uint64(p * float64(d.count-1))
	var cum uint64
	for idx, c := range d.counts {
		if cum += c; cum > target {
			return max(min(bucketUpper(idx), d.maxV), d.minV)
		}
	}
	return d.maxV
}

func (d *denseHistogram) reset() {
	d.counts = [numBuckets]uint64{}
	d.count, d.sum, d.minV, d.maxV, d.ex = 0, 0, 0, 0, Exemplar{}
}

// checkAgainstDense requires h to answer every query exactly like the
// model d, quantiles at each of ps, and its index to hold exactly one
// counter per touched sub-bucket, in ascending bucket order, with the
// model's counts: one header per touched octave, carrying the octave's
// sub-bucket mask and the position of its first counter.
func checkAgainstDense(t *testing.T, stage string, h *Histogram, d *denseHistogram, ps []float64) {
	t.Helper()
	if h.Count() != d.count || h.Sum() != d.sum || h.Min() != d.minV || h.Max() != d.maxV {
		t.Fatalf("%s: count/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d", stage,
			h.Count(), h.Sum(), h.Min(), h.Max(), d.count, d.sum, d.minV, d.maxV)
	}
	mean := 0.0
	if d.count > 0 {
		mean = float64(d.sum) / float64(d.count)
	}
	if got := h.Mean(); got != mean {
		t.Fatalf("%s: Mean = %g, want %g", stage, got, mean)
	}
	for _, p := range ps {
		if got, want := h.Quantile(p), d.quantile(p); got != want {
			t.Fatalf("%s: Quantile(%g) = %d, want %d", stage, p, got, want)
		}
	}
	want := Summary{Count: d.count, Sum: d.sum, Min: d.minV, Max: d.maxV, Mean: mean,
		P50: d.quantile(0.50), P95: d.quantile(0.95), P99: d.quantile(0.99)}
	if got := h.Summarize(); got != want {
		t.Fatalf("%s: Summarize = %+v, want %+v", stage, got, want)
	}
	if ex, ok := h.Exemplar(); ex != d.ex || ok != (d.ex.TraceID != "") {
		t.Fatalf("%s: Exemplar = %+v, %v, want %+v", stage, ex, ok, d.ex)
	}

	// The index the model implies: headers, then counters.
	var present uint64
	var masks []uint64
	var counters []uint64
	for b := 0; b < numBlocks; b++ {
		var mask uint64
		for off := 0; off < subBuckets; off++ {
			if idx := b*subBuckets + off; d.touched[idx] {
				mask |= 1 << off
				counters = append(counters, d.counts[idx])
			}
		}
		if mask != 0 {
			present |= 1 << b
			masks = append(masks, mask)
		}
	}
	if h.present != present || len(h.idx) != len(masks)+len(counters) {
		t.Fatalf("%s: present=%#x with %d index words, want %#x with %d headers and %d counters", stage,
			h.present, len(h.idx), present, len(masks), len(counters))
	}
	first := len(masks)
	for i, mask := range masks {
		if got, want := h.idx[i], uint64(first)<<32|mask; got != want {
			t.Fatalf("%s: header %d = %#x, want %#x", stage, i, got, want)
		}
		first += bits.OnesCount64(mask)
	}
	if got := h.idx[len(masks):]; !slices.Equal(got, counters) {
		t.Fatalf("%s: counters %v, want %v", stage, got, counters)
	}
}

// TestHistogramMatchesDenseReference records fixed-seed samples from
// every octave, including the block edges and math.MaxInt64, and
// requires the compact histogram to answer exactly like the dense
// reference, before and after Reset.
func TestHistogramMatchesDenseReference(t *testing.T) {
	samples := []int64{-7, 0, 1, 31, 32, 33, math.MaxInt64}
	for e := 1; e < 63; e++ {
		samples = append(samples, 1<<e-1, 1<<e, 1<<e+1)
	}
	rnd := sim.NewRand(17)
	for e := 0; e < 63; e++ {
		for i := 0; i < 40; i++ {
			samples = append(samples, 1<<e+rnd.Int63n(1<<e))
		}
	}
	for i := 0; i < 5000; i++ {
		samples = append(samples, int64(rnd.Intn(1<<uint(1+rnd.Intn(30)))))
	}
	for i := len(samples) - 1; i > 0; i-- {
		j := rnd.Intn(i + 1)
		samples[i], samples[j] = samples[j], samples[i]
	}

	grid := []float64{-1, 0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.999999, 1, 2}
	h, d := NewHistogram(), &denseHistogram{}
	checkAgainstDense(t, "empty", h, d, grid)
	for i, v := range samples {
		h.Record(v)
		d.record(v)
		if i%97 == 0 {
			checkAgainstDense(t, "prefix", h, d, grid)
		}
	}
	checkAgainstDense(t, "all", h, d, grid)

	h.Reset()
	d.reset()
	checkAgainstDense(t, "reset", h, d, grid)
	for _, v := range samples[:len(samples)/3] {
		h.Record(v)
		d.record(v)
	}
	checkAgainstDense(t, "after reset", h, d, grid)
}

// TestHistogramMatchesDenseReferenceRandomStreams drives the compact
// histogram and the dense model with seeded random streams whose
// octaves first appear in shuffled order, mixing in 0, small exact
// values, values near math.MaxInt64, negative values, exemplar offers
// (empty, stale and fresh trace ids) and a Reset midway, and requires
// identical answers at p = 0, 1 and 200 random quantiles throughout.
func TestHistogramMatchesDenseReferenceRandomStreams(t *testing.T) {
	const ops = 1200
	edges := []int64{-3, 0, 1, subBuckets - 1, subBuckets, math.MaxInt64 - 1, math.MaxInt64}
	for seed := uint64(1); seed <= 12; seed++ {
		rnd := sim.NewRand(seed)
		ps := []float64{0, 1}
		for len(ps) < 202 {
			ps = append(ps, rnd.Float64())
		}
		order := make([]int, numBlocks)
		for i := range order {
			order[i] = i
		}
		for i := len(order) - 1; i > 0; i-- {
			j := rnd.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		// A value in octave block b: [0, 32) for b = 0, otherwise
		// [2^(b+4), 2^(b+5)), which for the last block ends at MaxInt64.
		inOctave := func(b int) int64 {
			if b == 0 {
				return rnd.Int63n(subBuckets)
			}
			lo := int64(1) << (b + log2SubBuckets - 1)
			return lo + rnd.Int63n(lo)
		}

		h, d := NewHistogram(), &denseHistogram{}
		stage := func(i int) string { return "seed " + strconv.FormatUint(seed, 10) + " op " + strconv.Itoa(i) }
		for i := 0; i < ops; i++ {
			if i == ops/2 {
				h.Reset()
				d.reset()
				checkAgainstDense(t, stage(i)+" reset", h, d, ps)
			}
			// Open a new octave every ~10 ops, in shuffled order.
			v := inOctave(order[rnd.Intn(min(numBlocks, 1+i%(ops/2)/10))])
			if rnd.Intn(8) == 0 {
				v = edges[rnd.Intn(len(edges))]
			}
			switch rnd.Intn(4) {
			case 0:
				at := int64(i) * 1_000_000_000 // stale after ~10 ops
				id := ""
				if rnd.Intn(4) != 0 {
					id = "trace-" + strconv.Itoa(i)
				}
				h.RecordExemplar(v, id, at)
				d.recordExemplar(v, id, at)
			default:
				h.Record(v)
				d.record(v)
			}
			if i%150 == 0 {
				checkAgainstDense(t, stage(i), h, d, ps)
			}
		}
		checkAgainstDense(t, stage(ops), h, d, ps)
	}
}

// TestHistogramMatchesDenseReferenceDescendingStreams opens buckets in
// the orders that move the index most: octaves first seen from the top
// down, so every new header goes in front of the others, and
// sub-buckets within an octave from the top down, so every new counter
// goes in front of its octave's and shifts the first-counter position
// of each later octave. Each stream is recorded at its buckets' lower
// bounds, then again at their upper bounds after a Reset.
func TestHistogramMatchesDenseReferenceDescendingStreams(t *testing.T) {
	var octaves, subs, both []int
	for b := numBlocks - 1; b >= 0; b-- {
		octaves = append(octaves, b*subBuckets+b*7%subBuckets)
	}
	// Open octaves 3, 7 and 12, then fill 7 and 3 from the top down.
	subs = []int{3 * subBuckets, 7*subBuckets + 5, 12 * subBuckets}
	for _, b := range []int{7, 3} {
		for off := subBuckets - 1; off >= 0; off-- {
			subs = append(subs, b*subBuckets+off)
		}
	}
	for idx := numBuckets - 1; idx >= 0; idx-- {
		both = append(both, idx)
	}
	lower := func(idx int) int64 {
		if idx == 0 {
			return 0
		}
		return bucketUpper(idx-1) + 1
	}
	grid := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1}
	for name, stream := range map[string][]int{"octaves": octaves, "sub-buckets": subs, "both": both} {
		h, d := NewHistogram(), &denseHistogram{}
		for i, idx := range stream {
			h.Record(lower(idx))
			d.record(lower(idx))
			if len(stream) < 100 || i%37 == 0 {
				checkAgainstDense(t, name+" record "+strconv.Itoa(i), h, d, grid)
			}
		}
		checkAgainstDense(t, name, h, d, grid)
		h.Reset()
		d.reset()
		checkAgainstDense(t, name+" reset", h, d, grid)
		for _, idx := range stream {
			h.Record(bucketUpper(idx))
			d.record(bucketUpper(idx))
		}
		checkAgainstDense(t, name+" after reset", h, d, grid)
	}
}

// TestHistogramRecordAllocs: recording into a sub-bucket that has its
// counter allocates nothing, and Reset keeps the counters.
func TestHistogramRecordAllocs(t *testing.T) {
	var h Histogram // the zero value is ready to use
	h.Record(1000)
	h.Record(5)
	rec := func() {
		h.Record(1000)
		h.Record(5)
	}
	if a := testing.AllocsPerRun(100, rec); a != 0 {
		t.Errorf("Record into touched sub-buckets: %v allocs/run, want 0", a)
	}
	h.Reset()
	if a := testing.AllocsPerRun(100, rec); a != 0 {
		t.Errorf("Record after Reset: %v allocs/run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.Summarize() }); a != 0 {
		t.Errorf("Summarize: %v allocs/run, want 0", a)
	}
	// The exemplar slot is allocated once, by the first exemplar, and
	// overwritten in place after that, also across Reset.
	h.RecordExemplar(1000, "4bf92f3577b34da6a3ce929d0e0e4736", 1)
	at := int64(1)
	ex := func() {
		at++
		h.RecordExemplar(1000, "4bf92f3577b34da6a3ce929d0e0e4736", at)
	}
	if a := testing.AllocsPerRun(100, ex); a != 0 {
		t.Errorf("RecordExemplar with a held slot: %v allocs/run, want 0", a)
	}
	h.Reset()
	if a := testing.AllocsPerRun(100, ex); a != 0 {
		t.Errorf("RecordExemplar after Reset: %v allocs/run, want 0", a)
	}
}

// TestHistogramSummarizeNotTorn runs Summarize against a concurrent
// writer of a constant value: every digest must describe one moment,
// so Sum is exactly v*Count and the quantiles are ordered within
// [Min, Max].
func TestHistogramSummarizeNotTorn(t *testing.T) {
	const v = 1234
	h := NewHistogram()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			h.Record(v)
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
	}()
	for i := 0; i < 20000; i++ {
		s := h.Summarize()
		if s.Sum != v*int64(s.Count) {
			t.Fatalf("torn summary: Sum %d != %d * Count %d", s.Sum, v, s.Count)
		}
		if s.Count > 0 && !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("unordered summary: %+v", s)
		}
	}
}

// BenchmarkHistogramRecord records values spread over 20 octaves into
// a histogram whose counters already exist, the audit's steady state.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	vals := make([]int64, 1024)
	rnd := sim.NewRand(3)
	for i := range vals {
		vals[i] = rnd.Int63n(1 << uint(1+rnd.Intn(20)))
		h.Record(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i%len(vals)])
	}
}

// BenchmarkHistogramSummarize digests a histogram that has seen 20
// octaves: one locked walk over every touched sub-bucket.
func BenchmarkHistogramSummarize(b *testing.B) {
	var h Histogram
	rnd := sim.NewRand(3)
	for i := 0; i < 1024; i++ {
		h.Record(rnd.Int63n(1 << uint(1+rnd.Intn(20))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Summarize()
	}
}

// BenchmarkHistogramFirstValues records 6 values over 3 octaves into a
// fresh histogram, the audit's per-app pattern on the big mesh: every
// value opens a sub-bucket and every other one an octave.
func BenchmarkHistogramFirstValues(b *testing.B) {
	vals := []int64{70_000, 40_000, 150_000, 45_000, 90_000, 190_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(v)
		}
	}
}
