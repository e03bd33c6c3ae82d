package rmserver

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// The service parsers take untrusted bytes. Whatever they accept must
// decide through a Fleet without panicking a shard goroutine (which
// would take the whole daemon down). The seed corpora under
// testdata/fuzz/ replay on every plain `go test`; explore further with
//
//	go test ./internal/rmserver/ -run '^$' -fuzz FuzzParseOpLine -fuzztime 10s
//	go test ./internal/rmserver/ -run '^$' -fuzz FuzzParseOpsJSON -fuzztime 10s

// decideAll runs ops through a fresh single-shard fleet and checks
// every op got a decision.
func decideAll(t *testing.T, ops []Op) {
	f := New(Config{Shards: 1}, telemetry.NewRegistry())
	defer f.Drain()
	if ds := f.Do(ops); len(ds) != len(ops) {
		t.Fatalf("%d decisions for %d ops", len(ds), len(ops))
	}
}

// FuzzParseOpLine feeds each line of the input to the compact-format
// line parser and decides the parsed ops as one batch, so sequences
// (register, duplicate, withdraw) reach the platform state machine.
func FuzzParseOpLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		var ops []Op
		for _, line := range strings.Split(text, "\n") {
			if op, err := parseOpLine(line); err == nil {
				ops = append(ops, op)
			}
		}
		decideAll(t, ops)
	})
}

// FuzzParseOpsJSON feeds the input to the JSON batch parser, which
// also covers the single-op endpoints' wireOp validation and
// mode-change specs.
func FuzzParseOpsJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := parseOpsJSON(bytes.NewReader(body), 64)
		if err != nil {
			return
		}
		decideAll(t, ops)
	})
}
