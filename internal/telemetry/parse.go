package telemetry

import (
	"fmt"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample line.
type Sample struct {
	// Name is the metric name; Labels its label block, braces
	// included ("" when absent).
	Name, Labels string
	Value        float64
	// Exemplar is the clause after ` # ` — `{labels} value
	// [timestamp]` — or "" when the line carries none. ParseSample
	// only splits it off; ValidateExemplar checks it.
	Exemplar string
}

// ParseSample parses one exposition sample line,
// `name{labels} value [timestamp] [# {labels} value [timestamp]]`,
// the one parser behind obs.Scraper and cmd/omlint. It checks the
// metric name, that a quote-aware label block closes, that the value
// (and the timestamp, when present) parses as a float — which covers
// the spec's +Inf, -Inf and NaN — and returns the first error. Label
// names, label-value escapes and the exemplar clause are left to
// ValidateLabels and ValidateExemplar, which a strict linter adds.
func ParseSample(line string) (Sample, error) {
	name, labels, rest, ok := splitSample(line)
	switch {
	case !ok:
		return Sample{}, fmt.Errorf("malformed sample line %q", line)
	case !ValidMetricName(name):
		return Sample{}, fmt.Errorf("malformed sample line %q: illegal metric name %q", line, name)
	}
	// The exemplar clause starts past the quote-aware label block, so
	// a ` # ` inside a label value cannot be mistaken for it.
	s := Sample{Name: name, Labels: labels}
	if i := strings.Index(rest, " # {"); i >= 0 {
		rest, s.Exemplar = rest[:i], rest[i+3:]
	}
	fields := strings.Fields(rest)
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') || len(fields) == 0 || len(fields) > 2 {
		return Sample{}, fmt.Errorf("malformed sample line %q: want value [timestamp] after the name", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("unparseable sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return Sample{}, fmt.Errorf("unparseable sample timestamp %q", fields[1])
		}
	}
	s.Value = v
	return s, nil
}

// ValidMetricName reports whether name is a legal OpenMetrics metric
// name, [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool { return validName(name, true) }

// validName checks the metric-name charset, or with colon unset the
// label-name charset [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', colon && c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// ValidateLabels checks a brace-delimited label set in full: legal
// label names, double-quoted values, and only the escapes the spec
// allows inside them (\\, \", \n).
func ValidateLabels(block string) error {
	if len(block) < 2 || block[0] != '{' || block[len(block)-1] != '}' {
		return fmt.Errorf("label set %q is not brace-delimited", block)
	}
	s := block[1 : len(block)-1]
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label %q missing '='", s)
		}
		name := s[:eq]
		if !validName(name, false) {
			return fmt.Errorf("illegal label name %q", name)
		}
		s = s[eq+1:]
		if s == "" || s[0] != '"' {
			return fmt.Errorf("label %q value is not double-quoted", name)
		}
		i, closed := 1, false
		for i < len(s) && !closed {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					return fmt.Errorf("label %q value ends in a dangling escape", name)
				}
				switch s[i+1] {
				case '\\', '"', 'n':
					i += 2
				default:
					return fmt.Errorf("label %q value has illegal escape \\%c", name, s[i+1])
				}
			case '"':
				closed = true
				i++
			default:
				i++
			}
		}
		if !closed {
			return fmt.Errorf("label %q value has no closing quote", name)
		}
		s = s[i:]
		if s == "" {
			return nil
		}
		if s[0] != ',' {
			return fmt.Errorf("unexpected %q after label %q", s, name)
		}
		s = s[1:]
		if s == "" {
			return fmt.Errorf("trailing ',' in label set")
		}
	}
	return nil
}

// ValidateExemplar checks an exemplar clause `{labels} value
// [timestamp]`: the labelset passes ValidateLabels and stays within
// the spec's 128-character cap (measured over the block's interior),
// the value parses, and so does the timestamp when present.
func ValidateExemplar(ex string) error {
	end := labelBlockEnd(ex)
	if end < 0 {
		return fmt.Errorf("labelset %q not closed", ex)
	}
	if err := ValidateLabels(ex[:end]); err != nil {
		return err
	}
	if n := end - 2; n > 128 {
		return fmt.Errorf("labelset is %d chars, spec cap 128", n)
	}
	fields := strings.Fields(ex[end:])
	if len(fields) != 1 && len(fields) != 2 {
		return fmt.Errorf("%q: want value [timestamp] after labelset", ex)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("unparseable value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return nil
}

// splitSample splits an exposition sample line `name{labels} rest`
// into the metric name, its label block (braces included; "" when
// absent) and the rest of the line. ok is false when no name precedes
// a '{' or a blank, or when the block never closes.
func splitSample(line string) (name, labels, rest string, ok bool) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return "", "", "", false
	}
	name, rest = line[:i], line[i:]
	if rest[0] == '{' {
		end := labelBlockEnd(rest)
		if end < 0 {
			return "", "", "", false
		}
		labels, rest = rest[:end], rest[end:]
	}
	return name, labels, rest, true
}

// labelBlockEnd returns the index just past the '}' closing the label
// block that opens s, skipping '}', '#' and blanks inside quoted values
// (a backslash escapes the next byte). Unbalanced quotes fall back to
// the first '}', so a linter can still name the bad value; -1 means no
// '}' at all.
func labelBlockEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i + 1
		}
	}
	if i := strings.IndexByte(s, '}'); i >= 0 {
		return i + 1
	}
	return -1
}
