package main

import "testing"

// TestTailQuantile checks the rule that a reported tail percentile has
// at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{
		5000: 0.99, 1000: 0.99, 999: 0.9, 100: 0.9, 99: 0.5, 20: 0.5, 3: 0.5,
	} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
		if q := tailQuantile(n); q > 0.5 && beyond(n, q) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", n, 100*q, beyond(n, q))
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5}, // the exclusive method extrapolates

	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
