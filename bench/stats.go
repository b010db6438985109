package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) by nearest rank
// over the sorted latencies of the successes plus failed further
// requests that count as slower than any success: a request that fails
// misses every latency limit, so it stays in the denominator. When the
// rank lands among the failures there is no finite answer and +Inf is
// returned. An empty sample returns 0.
func percentile(sorted []float64, failed int, p float64) float64 {
	n := len(sorted) + failed
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		return math.Inf(1)
	}
	return sorted[rank-1]
}

// p50 is the median of a sorted sample without failures.
func p50(sorted []float64) float64 { return percentile(sorted, 0, 50) }

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 50th percentile with the two middle values averaged —
// used over run values and probe repetitions, where there are no
// failures to count.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method), so -runs reports the spread the way the driver computes it.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
