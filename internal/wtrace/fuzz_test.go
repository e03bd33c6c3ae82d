package wtrace

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary headers to ParseTraceparent: it
// must never panic, and any header it accepts must re-render through
// Traceparent as the header itself, lower-cased (the fields are
// fixed-length hex, so nothing else may survive a parse). The seed
// corpus under testdata/fuzz/ replays on every plain `go test`;
// explore further with
//
//	go test ./internal/wtrace/ -run '^$' -fuzz FuzzParseTraceparent -fuzztime 10s
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, flags, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		if got, want := Traceparent(tid, sid, flags), strings.ToLower(h); got != want {
			t.Fatalf("ParseTraceparent(%q) re-renders as %q, want %q", h, got, want)
		}
	})
}
