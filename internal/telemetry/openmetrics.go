package telemetry

import (
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// OpenMetrics content type for HTTP exposition, per the OpenMetrics
// 1.0 specification.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// writeMetricName writes an instrument's base name in the OpenMetrics
// metric-name charset [a-zA-Z_][a-zA-Z0-9_]*: dots (the registry's
// subsystem separator) and any other foreign byte become underscores,
// and a leading digit (or an empty name) is prefixed with one. The
// mapping is deterministic, so sorted input yields stable output. The
// written length is metricNameLen(name).
func writeMetricName(b *strings.Builder, name string) {
	if metricNameLen(name) > len(name) {
		b.WriteByte('_')
	}
	run := 0
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		b.WriteString(name[run:i])
		b.WriteByte('_')
		run = i + 1
	}
	b.WriteString(name[run:])
}

// metricNameLen is the length writeMetricName writes for name.
func metricNameLen(name string) int {
	if name == "" || name[0] >= '0' && name[0] <= '9' {
		return len(name) + 1
	}
	return len(name)
}

// splitInstrument splits an instrument name of the labeled form
// `base{key="value",...}` into its base name and label block. Names
// without a well-formed trailing label block are entirely base. This
// is the registry's labeled-metrics convention: an instrument named
// `rmserver_shard_queue_depth{shard="3"}` is one member of the
// `rmserver_shard_queue_depth` family, and the exposition emits the
// family's TYPE/HELP metadata once with one sample line per member.
func splitInstrument(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i > 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i:]
	}
	return name, ""
}

// appendLabels emits a label block, merging an extra key="value" pair
// into an existing block (for the summary quantile label).
func appendLabels(b []byte, labels, extraKey, extraVal string) []byte {
	switch {
	case labels == "" && extraKey == "":
		return b
	case labels == "":
		b = append(b, '{')
	default:
		b = append(b, labels[:len(labels)-1]...) // strip closing '}'
		if extraKey == "" {
			return append(b, '}')
		}
		b = append(b, ',')
	}
	b = append(b, extraKey...)
	b = append(b, `="`...)
	b = append(b, extraVal...)
	return append(b, `"}`...)
}

// appendExemplar renders an OpenMetrics exemplar clause after a sample
// value: ` # {trace_id="..."} value timestamp`, timestamp in seconds
// at millisecond precision.
func appendExemplar(b []byte, ex Exemplar) []byte {
	b = append(b, ` # {trace_id="`...)
	b = append(b, ex.TraceID...)
	b = append(b, `"} `...)
	b = strconv.AppendInt(b, ex.Value, 10)
	if ex.AtUnixNano > 0 {
		sec := ex.AtUnixNano / 1_000_000_000
		ms := ex.AtUnixNano % 1_000_000_000 / 1_000_000
		b = append(b, ' ')
		b = strconv.AppendInt(b, sec, 10)
		b = append(b, '.')
		b = append(b, byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10))
	}
	return b
}

// omEntry is one registry instrument as the exposition renders it.
type omEntry struct {
	name string // sanitized base name, a slice of the render's name arena
	raw  string // registry key
	inst any    // *Counter, *Gauge or *Histogram
}

// Entry kinds in the order same-named families render.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
)

func (e *omEntry) kind() int {
	switch e.inst.(type) {
	case *Counter:
		return kindCounter
	case *Gauge:
		return kindGauge
	}
	return kindHistogram
}

// labels is the entry's label block, "{...}" or "".
func (e *omEntry) labels() string {
	_, labels := splitInstrument(e.raw)
	return labels
}

// omFlushAt is the buffered size at which WriteOpenMetrics hands its
// rendering to the writer; the buffer starts at no more than twice
// that.
const omFlushAt = 32 << 10

// WriteOpenMetrics serializes the registry as OpenMetrics text
// exposition: counters as `<name>_total`, gauges verbatim, histograms
// as summary families (quantiles 0.5/0.95/0.99 plus _sum/_count) with
// companion `<name>_min`/`<name>_max` gauges. Instruments named with a
// trailing label block (see splitInstrument) group into one family —
// TYPE/HELP once, one sample line per label set — and a histogram
// holding an exemplar renders it on its p99 quantile line. Families
// are sorted by metric name (counter, gauge, then summary for equal
// names) and members by registry key, so identical registries
// serialize byte-identically; label-free registries render exactly as
// before the labeled convention existed. A family's HELP is the first
// member's, in key order, that has one. The stream ends with the
// mandatory `# EOF` marker. This is the registry's only dump: the mean
// of a histogram is its _sum over its _count.
//
// The exposition is streamed: one entry per instrument is collected
// under the registry lock, every sanitized name goes into one arena,
// and the text goes to w in chunks of about omFlushAt bytes, so the
// render itself costs memory in proportion to the instrument count,
// not to the text. A writer that keeps the whole text and offers
// Grow(int), as bytes.Buffer and strings.Builder do, is sized first:
// the same family walk runs once with a counting sink in place of w,
// and w.Grow(n) reserves the n bytes at once, so the text lands in one
// allocation of its final size instead of a buffer grown by doubling.
// Grow is only a hint: if instrument values change between the two
// walks, the buffer grows as usual, and the bytes written come only
// from the second walk. Any other writer gets the one streaming walk.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	es, helps := r.omIndex()
	// ~64 B per instrument: a small registry renders without a
	// full-size buffer, and a large one never needs more.
	o := omStream{b: make([]byte, 0, min(2*omFlushAt, 64*(len(es)+1)))}
	if g, ok := w.(interface{ Grow(int) }); ok {
		o.walk(es, helps)
		g.Grow(o.n)
	}
	o.w = w
	o.walk(es, helps)
	return o.err
}

// omIndex collects one entry per instrument under the registry lock,
// writes the entries' sanitized base names into one arena, and sorts
// the entries into exposition order: by name, then kind, then registry
// key. It also returns a copy of the registry's HELP texts, or nil
// when there are none. A nil registry has no entries.
func (r *Registry) omIndex() ([]omEntry, map[string]string) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	es := make([]omEntry, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for k, c := range r.counters {
		es = append(es, omEntry{raw: k, inst: c})
	}
	for k, g := range r.gauges {
		es = append(es, omEntry{raw: k, inst: g})
	}
	for k, h := range r.histograms {
		es = append(es, omEntry{raw: k, inst: h})
	}
	var helps map[string]string
	if len(r.helps) > 0 {
		helps = maps.Clone(r.helps)
	}
	r.mu.Unlock()

	size := 0
	for i := range es {
		base, _ := splitInstrument(es[i].raw)
		size += metricNameLen(base)
	}
	var arena strings.Builder
	arena.Grow(size)
	for i := range es {
		base, _ := splitInstrument(es[i].raw)
		at := arena.Len()
		writeMetricName(&arena, base)
		es[i].name = arena.String()[at:]
	}
	slices.SortFunc(es, func(a, b omEntry) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		if c := a.kind() - b.kind(); c != 0 {
			return c
		}
		return strings.Compare(a.raw, b.raw)
	})
	return es, helps
}

// familyHelp is the HELP text of a family: that of the first member,
// in key order, with one on its registry key or else on its base.
func familyHelp(fam []omEntry, helps map[string]string) string {
	if len(helps) == 0 {
		return ""
	}
	for i := range fam {
		if help := helps[fam[i].raw]; help != "" {
			return help
		}
		base, _ := splitInstrument(fam[i].raw)
		if help := helps[base]; help != "" {
			return help
		}
	}
	return ""
}

// omStream is WriteOpenMetrics' output buffer. The first write error
// sticks: later flushes drop their bytes and the error is returned.
type omStream struct {
	w    io.Writer // nil while sizing: flushes only count
	b    []byte
	n    int // bytes flushed
	sums []Summary
	err  error
}

// flush hands the buffer to the writer once it holds min bytes.
func (o *omStream) flush(min int) {
	if len(o.b) < min {
		return
	}
	o.n += len(o.b)
	if o.w != nil && o.err == nil {
		_, o.err = o.w.Write(o.b)
	}
	o.b = o.b[:0]
}

// walk renders the sorted entries family by family, ends the stream
// with the `# EOF` marker and flushes it. It allocates only to grow
// o.b past a line that does not fit and o.sums to the largest summary
// family, and the next walk reuses both.
func (o *omStream) walk(es []omEntry, helps map[string]string) {
	for len(es) > 0 && o.err == nil {
		kind := es[0].kind()
		n := 1
		for n < len(es) && es[n].name == es[0].name && es[n].kind() == kind {
			n++
		}
		fam := es[:n]
		es = es[n:]
		name, help := fam[0].name, familyHelp(fam, helps)
		o.b = appendFamilyHelp(o.b, name, "", help)
		switch kind {
		case kindCounter:
			o.b = appendFamilyType(o.b, name, "", "counter")
			for i := range fam {
				o.b = append(o.b, name...)
				o.b = append(o.b, "_total"...)
				o.b = append(o.b, fam[i].labels()...)
				o.b = append(o.b, ' ')
				o.b = strconv.AppendUint(o.b, fam[i].inst.(*Counter).Value(), 10)
				o.b = append(o.b, '\n')
				o.flush(omFlushAt)
			}
		case kindGauge:
			o.b = appendFamilyType(o.b, name, "", "gauge")
			for i := range fam {
				o.b = append(o.b, name...)
				o.b = append(o.b, fam[i].labels()...)
				o.b = append(o.b, ' ')
				o.b = appendFloat(o.b, fam[i].inst.(*Gauge).Value())
				o.b = append(o.b, '\n')
				o.flush(omFlushAt)
			}
		case kindHistogram:
			o.b = appendFamilyType(o.b, name, "", "summary")
			o.sums = o.sums[:0]
			for i := range fam {
				h, labels := fam[i].inst.(*Histogram), fam[i].labels()
				s := h.Summarize()
				ex, hasEx := h.Exemplar()
				o.sums = append(o.sums, s)
				for _, q := range [...]struct {
					label string
					v     int64
				}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
					o.b = append(o.b, name...)
					o.b = appendLabels(o.b, labels, "quantile", q.label)
					o.b = append(o.b, ' ')
					o.b = strconv.AppendInt(o.b, q.v, 10)
					if q.label == "0.99" && hasEx {
						o.b = appendExemplar(o.b, ex)
					}
					o.b = append(o.b, '\n')
				}
				o.b = append(o.b, name...)
				o.b = append(o.b, "_sum"...)
				o.b = append(o.b, labels...)
				o.b = append(o.b, ' ')
				o.b = strconv.AppendInt(o.b, s.Sum, 10)
				o.b = append(o.b, '\n')
				o.b = append(o.b, name...)
				o.b = append(o.b, "_count"...)
				o.b = append(o.b, labels...)
				o.b = append(o.b, ' ')
				o.b = strconv.AppendUint(o.b, s.Count, 10)
				o.b = append(o.b, '\n')
				o.flush(omFlushAt)
			}
			// Min/max are not summary suffixes; expose them as
			// companion gauge families (all members of the summary
			// family, contiguously, so families never interleave).
			for _, suffix := range [...]string{"_min", "_max"} {
				o.b = appendFamilyHelp(o.b, name, suffix, help)
				o.b = appendFamilyType(o.b, name, suffix, "gauge")
				for i := range fam {
					v := o.sums[i].Min
					if suffix == "_max" {
						v = o.sums[i].Max
					}
					o.b = append(o.b, name...)
					o.b = append(o.b, suffix...)
					o.b = append(o.b, fam[i].labels()...)
					o.b = append(o.b, ' ')
					o.b = strconv.AppendInt(o.b, v, 10)
					o.b = append(o.b, '\n')
					o.flush(omFlushAt)
				}
			}
		}
	}
	o.b = append(o.b, "# EOF\n"...)
	o.flush(0)
}

// appendFamilyHelp emits a `# HELP` line for family name+suffix when
// help is non-empty; a summary's companion family (suffix "_min" or
// "_max") notes the suffix after the text. Newlines in the text would
// break the line-oriented exposition, so they are flattened to spaces.
func appendFamilyHelp(b []byte, name, suffix, help string) []byte {
	if help == "" {
		return b
	}
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, ' ')
	for i := 0; i < len(help); i++ {
		c := help[i]
		if c == '\n' || c == '\r' {
			c = ' '
		}
		b = append(b, c)
	}
	if suffix != "" {
		b = append(b, " ("...)
		b = append(b, suffix[1:]...)
		b = append(b, ')')
	}
	return append(b, '\n')
}

func appendFamilyType(b []byte, name, suffix, kind string) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, ' ')
	b = append(b, kind...)
	return append(b, '\n')
}
