package telemetry

import (
	"io"
	"sort"
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
	b := make([]byte, 0, len(name)+1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b = append(b, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b = append(b, '_')
			}
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
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

// WriteOpenMetrics serializes the registry as OpenMetrics text
// exposition: counters as `<name>_total`, gauges verbatim, histograms
// as summary families (quantiles 0.5/0.95/0.99 plus _sum/_count) with
// companion `<name>_min`/`<name>_max` gauges. Instruments named with a
// trailing label block (see splitInstrument) group into one family —
// TYPE/HELP once, one sample line per label set — and a histogram
// holding an exemplar renders it on its p99 quantile line. Families
// are sorted by metric name and members by label block, so identical
// registries serialize byte-identically; label-free registries render
// exactly as before the labeled convention existed. The stream ends
// with the mandatory `# EOF` marker. This is the registry's only dump:
// the mean of a histogram is its _sum over its _count.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}
	r.mu.Lock()
	counters := make(map[string]uint64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v.Value()
	}
	histRefs := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histRefs[k] = v
	}
	helps := make(map[string]string, len(r.helps))
	for k, v := range r.helps {
		helps[k] = v
	}
	r.mu.Unlock()
	hists := make(map[string]Summary, len(histRefs))
	exemplars := make(map[string]Exemplar)
	for k, h := range histRefs {
		hists[k] = h.Summarize()
		if ex, ok := h.Exemplar(); ok {
			exemplars[k] = ex
		}
	}

	type member struct {
		key    string // full instrument name (registry key)
		labels string // "{...}" or ""
	}
	const (
		kindCounter = iota
		kindGauge
		kindHistogram
	)
	type family struct {
		name    string // sanitized base metric name
		kind    int
		help    string
		members []member
	}
	var fams []*family
	byKey := make(map[string]*family)
	add := func(kind int, raw string) {
		base, labels := splitInstrument(raw)
		n := sanitizeMetricName(base)
		mk := string(rune('0'+kind)) + n
		f := byKey[mk]
		if f == nil {
			f = &family{name: n, kind: kind}
			byKey[mk] = f
			fams = append(fams, f)
		}
		if f.help == "" {
			if h := helps[raw]; h != "" {
				f.help = h
			} else {
				f.help = helps[base]
			}
		}
		f.members = append(f.members, member{key: raw, labels: labels})
	}
	// Keys are added in sorted order per kind, so a family's members —
	// which share a base — arrive sorted by label block.
	for _, k := range sortedKeys(counters) {
		add(kindCounter, k)
	}
	for _, k := range sortedKeys(gauges) {
		add(kindGauge, k)
	}
	for _, k := range sortedKeys(hists) {
		add(kindHistogram, k)
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b []byte
	for _, f := range fams {
		b = appendFamilyHelp(b, f.name, f.help)
		switch f.kind {
		case kindCounter:
			b = appendFamilyType(b, f.name, "counter")
			for _, m := range f.members {
				b = append(b, f.name...)
				b = append(b, "_total"...)
				b = append(b, m.labels...)
				b = append(b, ' ')
				b = strconv.AppendUint(b, counters[m.key], 10)
				b = append(b, '\n')
			}
		case kindGauge:
			b = appendFamilyType(b, f.name, "gauge")
			for _, m := range f.members {
				b = append(b, f.name...)
				b = append(b, m.labels...)
				b = append(b, ' ')
				b = appendFloat(b, gauges[m.key])
				b = append(b, '\n')
			}
		case kindHistogram:
			b = appendFamilyType(b, f.name, "summary")
			for _, m := range f.members {
				s := hists[m.key]
				for _, q := range []struct {
					label string
					v     int64
				}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
					b = append(b, f.name...)
					b = appendLabels(b, m.labels, "quantile", q.label)
					b = append(b, ' ')
					b = strconv.AppendInt(b, q.v, 10)
					if q.label == "0.99" {
						if ex, ok := exemplars[m.key]; ok {
							b = appendExemplar(b, ex)
						}
					}
					b = append(b, '\n')
				}
				b = append(b, f.name...)
				b = append(b, "_sum"...)
				b = append(b, m.labels...)
				b = append(b, ' ')
				b = strconv.AppendInt(b, s.Sum, 10)
				b = append(b, '\n')
				b = append(b, f.name...)
				b = append(b, "_count"...)
				b = append(b, m.labels...)
				b = append(b, ' ')
				b = strconv.AppendUint(b, s.Count, 10)
				b = append(b, '\n')
			}
			// Min/max are not summary suffixes; expose them as
			// companion gauge families (all members of the summary
			// family, contiguously, so families never interleave).
			if f.help != "" {
				b = appendFamilyHelp(b, f.name+"_min", f.help+" (min)")
			}
			b = appendFamilyType(b, f.name+"_min", "gauge")
			for _, m := range f.members {
				b = append(b, f.name...)
				b = append(b, "_min"...)
				b = append(b, m.labels...)
				b = append(b, ' ')
				b = strconv.AppendInt(b, hists[m.key].Min, 10)
				b = append(b, '\n')
			}
			if f.help != "" {
				b = appendFamilyHelp(b, f.name+"_max", f.help+" (max)")
			}
			b = appendFamilyType(b, f.name+"_max", "gauge")
			for _, m := range f.members {
				b = append(b, f.name...)
				b = append(b, "_max"...)
				b = append(b, m.labels...)
				b = append(b, ' ')
				b = strconv.AppendInt(b, hists[m.key].Max, 10)
				b = append(b, '\n')
			}
		}
	}
	b = append(b, "# EOF\n"...)
	_, err := w.Write(b)
	return err
}

// appendFamilyHelp emits a `# HELP` line when help is non-empty.
// Newlines in the text would break the line-oriented exposition, so
// they are flattened to spaces.
func appendFamilyHelp(b []byte, name, help string) []byte {
	if help == "" {
		return b
	}
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	for i := 0; i < len(help); i++ {
		c := help[i]
		if c == '\n' || c == '\r' {
			c = ' '
		}
		b = append(b, c)
	}
	return append(b, '\n')
}

func appendFamilyType(b []byte, name, kind string) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, kind...)
	return append(b, '\n')
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
