// Command omlint is a minimal OpenMetrics text-exposition linter: it
// reads an exposition from stdin (or the files named as arguments)
// and exits non-zero with a diagnostic if the syntax is malformed.
// CI's process smoke pipes `curl /metrics` of a live socsim and rmd
// through it to prove the exporters emit parseable OpenMetrics, with
// no external Prometheus tooling.
//
// Checks: every line is a well-formed comment (# TYPE/# HELP/# UNIT),
// the # EOF terminator, or a sample line `name{labels} value [ts]`
// that telemetry.ParseSample accepts (a legal metric name, a closed
// label block, a parseable value and timestamp); TYPE declarations
// precede their samples and are not duplicated; the exposition is
// terminated by exactly one # EOF with nothing after it.
//
// Sample lines may carry an OpenMetrics exemplar clause
// (` # {labels} value [timestamp]`) after the value; the parser
// splits it off before the sample is validated.
//
// -strict additionally enforces exposition hygiene suitable for
// third-party scrapers: every sample must belong to a family with a
// TYPE and a HELP declaration (standard suffixes like _total, _sum,
// _count, _bucket resolve to their family), label sets are parsed
// in full — legal label names, double-quoted values, and only the
// spec's escapes (\\, \", \n) inside them — and exemplar clauses are
// validated: a well-formed labelset within the spec's 128-character
// cap, a parseable value, and a parseable timestamp when present
// (telemetry.ValidateLabels and telemetry.ValidateExemplar).
// A sample name that renders under two families (a gauge "x_total"
// beside a counter "x", say) is flagged too: a scraper cannot tell
// which family such a sample belongs to.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/telemetry"
)

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true,
	"untyped": true, "info": true, "stateset": true, "gaugehistogram": true, "unknown": true,
}

// familySuffixes are the sample-name suffixes the spec derives from a
// family name, tried in order when resolving a sample to its TYPE
// declaration (counter _total/_created, summary/histogram
// _sum/_count/_bucket, gaugehistogram _gsum/_gcount, info _info).
var familySuffixes = []string{
	"_total", "_created", "_bucket", "_count", "_sum", "_gcount", "_gsum", "_info",
}

// lint validates one exposition; returns the diagnostics found.
// strict additionally demands HELP+TYPE metadata for every sampled
// family and fully parses label sets (names, quoting, escapes).
func lint(src string, r io.Reader, strict bool) []string {
	var errs []string
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s:%d: %s", src, line, fmt.Sprintf(format, args...)))
	}
	types := make(map[string]string)
	helps := make(map[string]bool)
	reported := make(map[string]bool) // families already flagged for missing metadata
	owner := make(map[string]string)  // sample name -> the family it rendered under
	current := ""                     // family of the latest TYPE line
	sawEOF := false
	n := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		n++
		line := sc.Text()
		if sawEOF {
			fail(n, "content after # EOF terminator")
			sawEOF = false // report once
		}
		switch {
		case line == "# EOF":
			sawEOF = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				fail(n, "malformed TYPE comment %q", line)
				continue
			}
			name, typ := fields[2], fields[3]
			if !telemetry.ValidMetricName(name) {
				fail(n, "illegal metric family name %q", name)
			}
			if !validTypes[typ] {
				fail(n, "unknown metric type %q", typ)
			}
			if _, dup := types[name]; dup {
				fail(n, "duplicate TYPE for family %q", name)
			}
			types[name] = typ
			current = name
		case strings.HasPrefix(line, "# HELP "):
			if fields := strings.Fields(line); len(fields) >= 3 {
				helps[fields[2]] = true
			} else {
				fail(n, "malformed HELP comment %q", line)
			}
		case strings.HasPrefix(line, "# UNIT "):
			// Free-form; accepted.
		case strings.HasPrefix(line, "#"):
			fail(n, "unknown comment %q (want TYPE/HELP/UNIT/EOF)", line)
		case strings.TrimSpace(line) == "":
			fail(n, "blank line not allowed in exposition")
		default:
			sample, err := telemetry.ParseSample(line)
			if err != nil {
				fail(n, "%v", err)
				continue
			}
			if !strict {
				continue
			}
			name := sample.Name
			if sample.Exemplar != "" {
				if err := telemetry.ValidateExemplar(sample.Exemplar); err != nil {
					fail(n, "sample %q exemplar: %v", name, err)
				}
			}
			if sample.Labels != "" {
				if err := telemetry.ValidateLabels(sample.Labels); err != nil {
					fail(n, "sample %q: %v", name, err)
				}
			}
			family, ok := familyOf(name, current, types)
			if !ok {
				if !reported[name] {
					fail(n, "sample %q has no TYPE declaration", name)
					reported[name] = true
				}
				continue
			}
			if prev, seen := owner[name]; seen && prev != family {
				fail(n, "sample %q renders under two families, %q and %q", name, prev, family)
			}
			owner[name] = family
			if !helps[family] && !reported[family] {
				fail(n, "family %q has no HELP declaration", family)
				reported[family] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		fail(n, "read: %v", err)
	}
	if !sawEOF && len(errs) == 0 {
		fail(n, "missing # EOF terminator")
	}
	return errs
}

// familyOf resolves a sample name to its declared family: the name
// itself, or the name with one standard suffix stripped. A family's
// samples follow its TYPE line, so the current family wins over
// another declared family the name could also derive from.
func familyOf(name, current string, types map[string]string) (string, bool) {
	found := ""
	for _, suf := range append([]string{""}, familySuffixes...) {
		base := strings.TrimSuffix(name, suf)
		if base == "" || (suf != "" && base == name) {
			continue // empty, or name lacks this suffix
		}
		if base == current {
			return current, true
		}
		if _, ok := types[base]; ok && found == "" {
			found = base
		}
	}
	return found, found != ""
}

func main() {
	strict := flag.Bool("strict", false, "also require HELP+TYPE metadata per sampled family and validate label-value escaping")
	flag.Parse()
	var errs []string
	if args := flag.Args(); len(args) > 0 {
		for _, path := range args {
			f, err := os.Open(path)
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			errs = append(errs, lint(path, f, *strict)...)
			f.Close()
		}
	} else {
		errs = lint("stdin", os.Stdin, *strict)
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "omlint: %s\n", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	fmt.Println("omlint: OK")
}
