package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// lintStr lints a literal exposition.
func lintStr(src string, strict bool) []string {
	return lint("test", strings.NewReader(src), strict)
}

// wantClean asserts no diagnostics.
func wantClean(t *testing.T, errs []string) {
	t.Helper()
	if len(errs) != 0 {
		t.Fatalf("diagnostics on clean input: %v", errs)
	}
}

// wantError asserts some diagnostic mentions substr.
func wantError(t *testing.T, errs []string, substr string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e, substr) {
			return
		}
	}
	t.Fatalf("diagnostics %v missing %q", errs, substr)
}

const strictExposition = `# HELP req_seconds request latency
# TYPE req_seconds summary
req_seconds_count 10
req_seconds_sum 1.5
# HELP dram_reads total DRAM reads
# TYPE dram_reads counter
dram_reads_total{bank="0",note="a\"b\\c\nd"} 42
# EOF
`

func TestLintAcceptsWellFormedExposition(t *testing.T) {
	wantClean(t, lintStr(strictExposition, false))
	wantClean(t, lintStr(strictExposition, true))
}

func TestLintBaseSyntaxErrors(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"x 1\n", "missing # EOF"},
		{"# EOF\nx 1\n", "content after # EOF"},
		{"# TYPE x wibble\nx 1\n# EOF\n", "unknown metric type"},
		{"# TYPE x gauge\n# TYPE x gauge\nx 1\n# EOF\n", "duplicate TYPE"},
		{"# WAT x\n# EOF\n", "unknown comment"},
		{"\n# EOF\n", "blank line"},
		{"x notanumber\n# EOF\n", "unparseable sample value"},
		{"0bad 1\n# EOF\n", "malformed sample line"},
		{"# HELP\n# EOF\n", "unknown comment"},
	} {
		wantError(t, lintStr(c.src, false), c.want)
	}
}

func TestLintDefaultModeToleratesMissingMetadata(t *testing.T) {
	// The repo's own renderer emits TYPE but no HELP; default mode
	// (what CI's socsim scrape runs) must keep accepting it.
	wantClean(t, lintStr("# TYPE x gauge\nx 1\n# EOF\n", false))
	// Even a bare sample with no TYPE is syntax-valid.
	wantClean(t, lintStr("x 1\n# EOF\n", false))
	// And sloppy label escaping is not a syntax concern.
	wantClean(t, lintStr("x{l=\"a\\qb\"} 1\n# EOF\n", false))
}

func TestLintStrictRequiresTypeAndHelp(t *testing.T) {
	errs := lintStr("x 1\n# EOF\n", true)
	wantError(t, errs, `sample "x" has no TYPE declaration`)

	errs = lintStr("# TYPE x gauge\nx 1\n# EOF\n", true)
	wantError(t, errs, `family "x" has no HELP declaration`)

	// Each family is flagged once, not once per sample.
	errs = lintStr("# TYPE x gauge\nx 1\nx{l=\"a\"} 2\n# EOF\n", true)
	if len(errs) != 1 {
		t.Fatalf("missing-HELP reported per sample: %v", errs)
	}
}

func TestLintStrictResolvesFamilySuffixes(t *testing.T) {
	// _total/_sum/_count/_bucket samples belong to their base family.
	src := `# HELP c requests
# TYPE c counter
c_total 1
c_created 12345
# HELP h latency
# TYPE h histogram
h_bucket{le="+Inf"} 3
h_count 3
h_sum 0.5
# EOF
`
	wantClean(t, lintStr(src, true))
}

func TestLintStrictFlagsSampleNameUnderTwoFamilies(t *testing.T) {
	// A gauge "noc.delivered_total" beside a counter "noc.delivered":
	// both render the sample noc_delivered_total.
	reg := telemetry.NewRegistry()
	reg.Counter("noc.delivered").Add(7)
	reg.Gauge("noc.delivered_total").Set(7)
	reg.SetHelp("noc.delivered", "Packets delivered.")
	reg.SetHelp("noc.delivered_total", "Packets delivered, as a gauge.")
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	errs := lint("registry", strings.NewReader(buf.String()), true)
	wantError(t, errs, `sample "noc_delivered_total" renders under two families`)
	if len(errs) != 1 {
		t.Fatalf("want only the two-family finding, got %v\n%s", errs, buf.String())
	}
	// Default mode still accepts it: the simulator's dumps carry the
	// collision and are linted without -strict.
	wantClean(t, lint("registry", strings.NewReader(buf.String()), false))
	// Repeating a sample name inside one family (label sets) is fine.
	wantClean(t, lintStr("# HELP x x\n# TYPE x gauge\nx{a=\"1\"} 1\nx{a=\"2\"} 2\n# EOF\n", true))
}

func TestLintStrictLabelEscaping(t *testing.T) {
	head := "# HELP x x\n# TYPE x gauge\n"
	for _, c := range []struct{ sample, want string }{
		{`x{l="a\qb"} 1`, `illegal escape \q`},
		{`x{l="dangling\` + `"} 1`, "no closing quote"},
		{`x{l=unquoted} 1`, "not double-quoted"},
		{`x{0bad="v"} 1`, "illegal label name"},
		{`x{l="v"extra="w"} 1`, "unexpected"},
		{`x{l="v",} 1`, "trailing ','"},
		{`x{noeq} 1`, "missing '='"},
	} {
		wantError(t, lintStr(head+c.sample+"\n# EOF\n", true), c.want)
		// None of these are default-mode errors.
		wantClean(t, lintStr(head+c.sample+"\n# EOF\n", false))
	}
	// Legal escapes pass.
	wantClean(t, lintStr(head+`x{l="a\\b\"c\nd",m="plain"} 1`+"\n# EOF\n", true))
	// A '}' inside a quoted value does not close the label set, in the
	// sample's labels or in an exemplar's.
	wantClean(t, lintStr("# TYPE x gauge\n# HELP x h\nx{a=\"b}c\"} 1\n# EOF\n", true))
	wantClean(t, lintStr(head+`x{a="}",b="{}"} 1 # {t="a}b"} 1`+"\n# EOF\n", true))
}

func TestLintAcceptsExemplars(t *testing.T) {
	src := `# HELP lat latency
# TYPE lat summary
lat{quantile="0.99"} 900 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 900 1700000000.123
lat_sum 5400
lat_count 30
# HELP c requests
# TYPE c counter
c_total 5 # {trace_id="00f067aa0ba902b7"} 1
# EOF
`
	wantClean(t, lintStr(src, false))
	wantClean(t, lintStr(src, true))
}

func TestLintStrictExemplarErrors(t *testing.T) {
	head := "# HELP x x\n# TYPE x gauge\n"
	long := strings.Repeat("a", 140)
	for _, c := range []struct{ sample, want string }{
		{`x 1 # {t="v"}`, "want value [timestamp] after labelset"},
		{`x 1 # {t="v"} 1 2 3`, "want value [timestamp] after labelset"},
		{`x 1 # {t="v"} wat`, `unparseable value "wat"`},
		{`x 1 # {t="v"} 1 then`, `unparseable timestamp "then"`},
		{`x 1 # {t="a\qb"} 1`, `illegal escape \q`},
		{`x 1 # {0bad="v"} 1`, "illegal label name"},
		{`x 1 # {t="` + long + `"} 1`, "spec cap 128"},
	} {
		wantError(t, lintStr(head+c.sample+"\n# EOF\n", true), c.want)
		// Exemplar hygiene is a strict-mode concern; default mode only
		// needs the sample proper to parse.
		wantClean(t, lintStr(head+c.sample+"\n# EOF\n", false))
	}
	// A bare ` # ` with no labelset after it is not an exemplar
	// separator, so the line fails as a malformed sample.
	wantError(t, lintStr(head+"x 1 # nope\n# EOF\n", false), "malformed sample line")
	// A ' # ' inside a label value is not a separator either.
	wantClean(t, lintStr(head+`x{note="a # b"} 1`+"\n# EOF\n", true))
}

func TestLintExemplarOnRegistryOutput(t *testing.T) {
	// End-to-end: the repo's own renderer with an exemplar-carrying
	// histogram must pass -strict.
	reg := telemetry.NewRegistry()
	reg.SetHelp("lat_ns", "Latency.")
	h := reg.Histogram("lat_ns")
	for i := 1; i <= 100; i++ {
		h.RecordExemplar(int64(i), "4bf92f3577b34da6a3ce929d0e0e4736", 1700000000123456789)
	}
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# {trace_id="`) {
		t.Fatalf("exposition has no exemplar:\n%s", buf.String())
	}
	wantClean(t, lint("registry", strings.NewReader(buf.String()), true))
}

func TestLintRegistryOutputStaysDefaultClean(t *testing.T) {
	// End-to-end guard: whatever the repo's own registry renders must
	// keep passing the default lint CI's socsim scrape applies.
	reg := telemetry.NewRegistry()
	reg.Counter("dram.reads").Add(42)
	reg.Gauge("audit.crit.bound_ns").Set(1210)
	h := reg.Histogram("crit.read_latency_ns")
	for i := 0; i < 100; i++ {
		h.Record(int64(i))
	}
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	wantClean(t, lint("registry", strings.NewReader(buf.String()), false))
}
