package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p      float64
		failed int
		want   float64
	}{
		{50, 0, 5},
		{90, 0, 9},
		{99, 0, 10},
		{100, 0, 10},
		{1, 0, 1},
		// Two failures join the denominator as slower than any success:
		// rank ceil(0.5·12) = 6.
		{50, 2, 6},
		// ceil(0.9·12) = 11 lands among the failures.
		{90, 2, math.Inf(1)},
	} {
		if got := percentile(lat, tc.failed, tc.p); got != tc.want {
			t.Errorf("percentile(p=%v, failed=%d) = %v, want %v", tc.p, tc.failed, got, tc.want)
		}
	}
	if got := percentile(nil, 0, 50); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got := percentile(nil, 3, 50); !math.IsInf(got, 1) {
		t.Errorf("only failures: got %v, want +Inf", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 1.0, 7.7}, [3]float64{1.0, 3.1, 7.7}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.xs, i, got, tc.want[i])
			}
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
