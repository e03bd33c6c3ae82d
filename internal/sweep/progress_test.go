package sweep

import (
	"fmt"
	"testing"
)

func TestRunObservedProgress(t *testing.T) {
	specs := make([]Spec, 9)
	for i := range specs {
		specs[i] = Spec{Label: fmt.Sprintf("cfg%d", i%3), Kind: Contention}
	}
	exec := func(s Spec) (Result, error) {
		if s.Label == "cfg2" {
			return Result{}, fmt.Errorf("boom")
		}
		return Result{Violations: 2}, nil
	}

	prog := NewProgress(len(specs))
	results := RunObserved(specs, 1, exec, prog.Observe)

	snap := prog.Snapshot()
	if snap.Total != 9 || snap.Done != 9 || snap.Failed != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Violations != 12 { // 6 successful runs × 2
		t.Fatalf("violations = %d, want 12", snap.Violations)
	}
	if snap.LastLabel == "" {
		t.Fatal("LastLabel empty")
	}
	for i, r := range results {
		if r.Spec.Label != specs[i].Label {
			t.Fatalf("result %d out of slot", i)
		}
	}
}

// TestRunObservedConcurrent exercises Progress under the worker pool,
// with a reader polling Snapshot as a live endpoint does, for the race
// detector.
func TestRunObservedConcurrent(t *testing.T) {
	specs := make([]Spec, 32)
	for i := range specs {
		specs[i] = Spec{Label: fmt.Sprintf("cfg%d", i), Kind: Contention}
	}
	exec := func(Spec) (Result, error) { return Result{Violations: 1}, nil }
	prog := NewProgress(len(specs))
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if snap := prog.Snapshot(); snap.Done > snap.Total {
				t.Errorf("snapshot = %+v", snap)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	RunObserved(specs, 8, exec, prog.Observe)
	close(stop)
	<-polled
	if snap := prog.Snapshot(); snap.Done != 32 || snap.Violations != 32 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
