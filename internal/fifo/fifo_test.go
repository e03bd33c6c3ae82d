package fifo

import (
	"fmt"
	"testing"
)

// TestQueueFIFO pins FIFO order through the compaction path: keep the
// queue non-empty for long enough that the dead-prefix compaction
// triggers and check nothing is lost or reordered.
func TestQueueFIFO(t *testing.T) {
	var q Queue[string]
	next, want := 0, 0
	push := func() {
		q.Push(fmt.Sprintf("v%d", next))
		next++
	}
	pop := func() {
		if got, w := q.Peek(), fmt.Sprintf("v%d", want); got != w {
			t.Fatalf("Peek = %q, want %q", got, w)
		}
		if got, w := q.Pop(), fmt.Sprintf("v%d", want); got != w {
			t.Fatalf("Pop = %q, want %q", got, w)
		}
		want++
	}
	// Phase 1: grow a backlog, then drain past the compaction threshold
	// (head > 32 with a live tail).
	for i := 0; i < 100; i++ {
		push()
	}
	for i := 0; i < 60; i++ {
		pop()
	}
	// Phase 2: steady churn with a standing backlog.
	for i := 0; i < 500; i++ {
		push()
		pop()
	}
	if q.Len() != next-want {
		t.Fatalf("Len = %d, want %d", q.Len(), next-want)
	}
	// Drain.
	for q.Len() > 0 {
		pop()
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}

// TestQueueAllocFlat checks that push/pop churn reuses the buffer
// instead of reallocating per element, as popping by reslicing would.
func TestQueueAllocFlat(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	// Warm up: let the buffer reach its steady-state capacity.
	for i := 0; i < 64; i++ {
		q.Push(v)
		q.Pop()
	}
	avg := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Pop()
	})
	if avg != 0 {
		t.Fatalf("push/pop churn allocates %.2f allocs/op, want 0", avg)
	}
}
