package obs

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// writeStoreFiles lays down a store directory from raw bytes: the log,
// and the seq sidecar when seq is non-empty.
func writeStoreFiles(t *testing.T, log, seq []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if len(seq) > 0 {
		if err := os.WriteFile(filepath.Join(dir, seqFile), seq, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestStoreSeqCounterAtMaxIsRebuiltNotWrapped(t *testing.T) {
	dir := writeStoreFiles(t, []byte(`{"seq":5,"kind":"k"}`+"\n"),
		strconv.AppendInt(nil, math.MaxInt64, 10))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, want := range []int64{6, 7} {
		rec, err := s.Append(RunRecord{Kind: "k"})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != want {
			t.Fatalf("Append after a MaxInt64 counter stamped Seq %d, want %d (rebuilt from the log)", rec.Seq, want)
		}
	}
}

func TestStoreSeqExhaustionIsAnError(t *testing.T) {
	// A log already holding MaxInt64 has no next Seq.
	dir := writeStoreFiles(t, []byte(`{"seq":9223372036854775807}`+"\n"), nil)
	if s, err := Open(dir); !errors.Is(err, errSeqExhausted) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open on a log holding Seq MaxInt64: err = %v, want %v", err, errSeqExhausted)
	}
	// One below: the last Seq goes out, the one after is refused.
	dir = writeStoreFiles(t, []byte(`{"seq":9223372036854775805}`+"\n"), nil)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec, err := s.Append(RunRecord{}); err != nil || rec.Seq != math.MaxInt64-1 {
		t.Fatalf("Append = Seq %d, %v; want %d", rec.Seq, err, int64(math.MaxInt64-1))
	}
	if rec, err := s.Append(RunRecord{}); !errors.Is(err, errSeqExhausted) {
		t.Fatalf("Append past the last Seq = Seq %d, %v; want %v", rec.Seq, err, errSeqExhausted)
	}
}

// FuzzStoreOpen opens a store laid down from arbitrary log and sidecar
// bytes: Open must never panic, and when it succeeds two Appends must
// stamp Seqs above every Seq already in the log, in increasing order,
// which a reopen then reads back as the log's last two records. The
// one refusal allowed is errSeqExhausted, and only once the log holds
// MaxInt64-1, the last Seq the counter can hand out. The seed corpus
// under testdata/fuzz/ replays on every plain `go test`; explore
// further with
//
//	go test ./internal/obs/ -run '^$' -fuzz FuzzStoreOpen -fuzztime 10s
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, log, seq []byte) {
		dir := writeStoreFiles(t, log, seq)
		s, err := Open(dir)
		if err != nil {
			return
		}
		before, err := s.Query(Filter{})
		if err != nil {
			t.Fatalf("Query after a clean Open: %v", err)
		}
		var prev int64 = math.MinInt64
		for _, r := range before {
			prev = max(prev, r.Seq)
		}
		var stamped []int64
		for i := 0; i < 2; i++ {
			rec, err := s.Append(RunRecord{Kind: "fuzz"})
			if errors.Is(err, errSeqExhausted) {
				if prev != math.MaxInt64-1 {
					t.Fatalf("Append %d refused as exhausted below Seq %d (highest %d)", i, int64(math.MaxInt64-1), prev)
				}
				break
			}
			if err != nil {
				t.Fatalf("Append %d after a clean Open: %v", i, err)
			}
			if rec.Seq <= prev {
				t.Fatalf("Append %d stamped Seq %d, not above %d", i, rec.Seq, prev)
			}
			prev = rec.Seq
			stamped = append(stamped, rec.Seq)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen after Appends: %v", err)
		}
		defer s.Close()
		after, err := s.Query(Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before)+len(stamped) {
			t.Fatalf("reopen reads %d records, want %d + %d appended", len(after), len(before), len(stamped))
		}
		for i, seq := range stamped {
			if got := after[len(before)+i].Seq; got != seq {
				t.Fatalf("reopened record %d has Seq %d, appended as %d", len(before)+i, got, seq)
			}
		}
	})
}
