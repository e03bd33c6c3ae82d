package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStorePruneKeepsNewestAndSeq(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 10; i++ {
		if _, err := s.Append(RunRecord{Kind: KindBench, Label: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.Prune(3)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 7 {
		t.Fatalf("removed = %d, want 7", removed)
	}
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("kept %d records, want 3", len(recs))
	}
	// The survivors are the newest, Seq preserved and still increasing.
	for i, r := range recs {
		if want := fmt.Sprintf("r%d", 7+i); r.Label != want {
			t.Fatalf("kept[%d].Label = %q, want %q", i, r.Label, want)
		}
		if want := int64(8 + i); r.Seq != want {
			t.Fatalf("kept[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}

	// The same handle's next append continues the sequence past the
	// pruned records — the sidecar is untouched.
	r, err := s.Append(RunRecord{Kind: KindBench, Label: "after"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 11 {
		t.Fatalf("post-prune Seq = %d, want 11", r.Seq)
	}

	// And the append landed in the surviving file, visible to a fresh
	// handle.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err = s2.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Label != "after" || recs[3].Seq != 11 {
		t.Fatalf("fresh handle sees %+v", recs)
	}
}

// A long-lived handle (sweep -store, rmd -store) keeps appending while
// obsq prunes through another: its next append must land in the log
// the prune renamed into place, not in the unlinked one it replaced.
func TestStoreAppendAfterOtherHandlesPrune(t *testing.T) {
	a := testStore(t)
	for i := 0; i < 3; i++ {
		if _, err := a.Append(RunRecord{Kind: KindBench, Label: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := Open(a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if removed, err := b.Prune(1); err != nil || removed != 2 {
		t.Fatalf("prune = %d, %v; want 2 removed", removed, err)
	}
	r, err := a.Append(RunRecord{Kind: KindBench, Label: "after"})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Store{a, b} {
		recs, err := h.Query(Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || recs[0].Seq != 3 || recs[1].Seq != r.Seq || recs[1].Label != "after" {
			t.Fatalf("after the other handle's prune the log holds %+v, want Seq 3 and the appended Seq %d", recs, r.Seq)
		}
	}
}

func TestStorePruneNoOpWhenUnderKeep(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(RunRecord{Kind: KindBench}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(filepath.Join(s.Dir(), storeFile))
	if err != nil {
		t.Fatal(err)
	}
	removed, err := s.Prune(5)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed = %d, want 0", removed)
	}
	after, err := os.ReadFile(filepath.Join(s.Dir(), storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("no-op prune rewrote the log")
	}
}

func TestStorePruneKeepZeroAndErrors(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 4; i++ {
		if _, err := s.Append(RunRecord{Kind: KindBench}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Prune(-1); err == nil || !strings.Contains(err.Error(), "want >= 0") {
		t.Fatalf("Prune(-1) err = %v", err)
	}
	removed, err := s.Prune(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Fatalf("removed = %d, want 4", removed)
	}
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("records after Prune(0): %+v", recs)
	}
	// Sequence still continues from the sidecar — no reuse.
	r, err := s.Append(RunRecord{Kind: KindBench})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 5 {
		t.Fatalf("Seq after Prune(0) = %d, want 5", r.Seq)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prune(1); err == nil || !strings.Contains(err.Error(), "closed store") {
		t.Fatalf("Prune on closed store err = %v", err)
	}
}

func TestStorePruneScrubsTornTail(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(RunRecord{Kind: KindBench, Label: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crashed writer: unparseable, newline-less tail.
	f, err := os.OpenFile(filepath.Join(s.Dir(), storeFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"ben`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Even when keep covers every whole record, prune rewrites to scrub
	// the garbage tail.
	removed, err := s.Prune(10)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed = %d, want 0 (torn bytes are not records)", removed)
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `{"kind":"ben`) || !strings.HasSuffix(string(data), "\n") {
		t.Fatalf("torn tail survived prune: %q", data)
	}
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("kept %d records, want 3", len(recs))
	}
}
