package telemetry

import (
	"io"
	"slices"
	"strconv"
	"strings"
)

// OpenMetrics content type for HTTP exposition, per the OpenMetrics
// 1.0 specification.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// sanitizeMetricName maps an instrument name onto the OpenMetrics
// metric-name charset [a-zA-Z_][a-zA-Z0-9_]*: dots (the registry's
// subsystem separator) and any other foreign rune become underscores,
// and a leading digit is prefixed. The mapping is deterministic, so
// sorted input yields stable output.
func sanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
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
	name   string // sanitized base metric name
	kind   int    // kindCounter, kindGauge or kindHistogram
	raw    string // registry key
	labels string // "{...}" or ""
	help   string // HELP set on the raw key, else on the base
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Entry kinds in the order same-named families render.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
)

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
// under the registry lock, and the text goes to w in chunks of about
// omFlushAt bytes, so the dump costs memory in proportion to the
// instrument count, not to the text.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}
	r.mu.Lock()
	es := make([]omEntry, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	add := func(kind int, raw string) *omEntry {
		base, labels := splitInstrument(raw)
		help := r.helps[raw]
		if help == "" {
			help = r.helps[base]
		}
		es = append(es, omEntry{name: sanitizeMetricName(base), kind: kind, raw: raw, labels: labels, help: help})
		return &es[len(es)-1]
	}
	for k, c := range r.counters {
		add(kindCounter, k).c = c
	}
	for k, g := range r.gauges {
		add(kindGauge, k).g = g
	}
	for k, h := range r.histograms {
		add(kindHistogram, k).h = h
	}
	r.mu.Unlock()
	slices.SortFunc(es, func(a, b omEntry) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		if a.kind != b.kind {
			return a.kind - b.kind
		}
		return strings.Compare(a.raw, b.raw)
	})

	// ~64 B per instrument: a small registry renders without a
	// full-size buffer, and a large one never needs more.
	o := omStream{w: w, b: make([]byte, 0, min(2*omFlushAt, 64*len(es)))}
	var sums []Summary
	for len(es) > 0 && o.err == nil {
		n := 1
		for n < len(es) && es[n].name == es[0].name && es[n].kind == es[0].kind {
			n++
		}
		fam := es[:n]
		es = es[n:]
		name, help := fam[0].name, ""
		for i := range fam {
			if help = fam[i].help; help != "" {
				break
			}
		}
		o.b = appendFamilyHelp(o.b, name, "", help)
		switch fam[0].kind {
		case kindCounter:
			o.b = appendFamilyType(o.b, name, "", "counter")
			for i := range fam {
				o.b = append(o.b, name...)
				o.b = append(o.b, "_total"...)
				o.b = append(o.b, fam[i].labels...)
				o.b = append(o.b, ' ')
				o.b = strconv.AppendUint(o.b, fam[i].c.Value(), 10)
				o.b = append(o.b, '\n')
				o.flush(omFlushAt)
			}
		case kindGauge:
			o.b = appendFamilyType(o.b, name, "", "gauge")
			for i := range fam {
				o.b = append(o.b, name...)
				o.b = append(o.b, fam[i].labels...)
				o.b = append(o.b, ' ')
				o.b = appendFloat(o.b, fam[i].g.Value())
				o.b = append(o.b, '\n')
				o.flush(omFlushAt)
			}
		case kindHistogram:
			o.b = appendFamilyType(o.b, name, "", "summary")
			sums = sums[:0]
			for i := range fam {
				m := &fam[i]
				s := m.h.Summarize()
				ex, hasEx := m.h.Exemplar()
				sums = append(sums, s)
				for _, q := range [...]struct {
					label string
					v     int64
				}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
					o.b = append(o.b, name...)
					o.b = appendLabels(o.b, m.labels, "quantile", q.label)
					o.b = append(o.b, ' ')
					o.b = strconv.AppendInt(o.b, q.v, 10)
					if q.label == "0.99" && hasEx {
						o.b = appendExemplar(o.b, ex)
					}
					o.b = append(o.b, '\n')
				}
				o.b = append(o.b, name...)
				o.b = append(o.b, "_sum"...)
				o.b = append(o.b, m.labels...)
				o.b = append(o.b, ' ')
				o.b = strconv.AppendInt(o.b, s.Sum, 10)
				o.b = append(o.b, '\n')
				o.b = append(o.b, name...)
				o.b = append(o.b, "_count"...)
				o.b = append(o.b, m.labels...)
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
					v := sums[i].Min
					if suffix == "_max" {
						v = sums[i].Max
					}
					o.b = append(o.b, name...)
					o.b = append(o.b, suffix...)
					o.b = append(o.b, fam[i].labels...)
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
	return o.err
}

// omStream is WriteOpenMetrics' output buffer. The first write error
// sticks: later flushes drop their bytes and the error is returned.
type omStream struct {
	w   io.Writer
	b   []byte
	err error
}

// flush hands the buffer to the writer once it holds min bytes.
func (o *omStream) flush(min int) {
	if len(o.b) < min {
		return
	}
	if o.err == nil {
		_, o.err = o.w.Write(o.b)
	}
	o.b = o.b[:0]
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
