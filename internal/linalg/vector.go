package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
// It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Dot4 returns the inner products of y with each of a, b, c, and d in
// one pass. Each accumulator sums its record's terms strictly in
// ascending feature order — exactly Dot's reduction — so every result
// is bit-identical to the corresponding Dot call; the four chains are
// merely independent, letting their FP latencies and cache misses
// overlap. The exact scan's one-probe kernel calls it over four
// consecutive gallery rows. It panics if any length differs.
func Dot4(a, b, c, d, y []float64) (s0, s1, s2, s3 float64) {
	if len(a) != len(y) || len(b) != len(y) || len(c) != len(y) || len(d) != len(y) {
		panic(fmt.Sprintf("linalg: Dot4 length mismatch %d/%d/%d/%d vs %d",
			len(a), len(b), len(c), len(d), len(y)))
	}
	a, b, c, d = a[:len(y)], b[:len(y)], c[:len(y)], d[:len(y)]
	for i, v := range y {
		s0 += a[i] * v
		s1 += b[i] * v
		s2 += c[i] * v
		s3 += d[i] * v
	}
	return
}

// Dot8 is Dot4 twice as wide: the inner products of y with each of
// eight records, eight independent accumulator chains, each
// bit-identical to the corresponding lone Dot. Wider than the
// latency-hiding sweet spot for L1-resident data, but gathered records
// are cache-cold, where eight in-flight miss streams beat four: it is
// the pure-go body of the IVF scan's gather (gallery's Blocked.DotsAt).
// It panics if any length differs.
func Dot8(a, b, c, d, e, f, g, h, y []float64) (s0, s1, s2, s3, s4, s5, s6, s7 float64) {
	n := len(y)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n ||
		len(e) != n || len(f) != n || len(g) != n || len(h) != n {
		panic(fmt.Sprintf("linalg: Dot8 length mismatch %d/%d/%d/%d/%d/%d/%d/%d vs %d",
			len(a), len(b), len(c), len(d), len(e), len(f), len(g), len(h), n))
	}
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	e, f, g, h = e[:n], f[:n], g[:n], h[:n]
	for i, v := range y {
		s0 += a[i] * v
		s1 += b[i] * v
		s2 += c[i] * v
		s3 += d[i] * v
		s4 += e[i] * v
		s5 += f[i] * v
		s6 += g[i] * v
		s7 += h[i] * v
	}
	return
}

// Norm2 returns the Euclidean norm of x, guarded against overflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			ssq = 1 + ssq*(scale/av)*(scale/av)
			scale = av
		} else {
			ssq += (av / scale) * (av / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y ← a·x + y in place.
// It panics if the lengths differ.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if a == 0 {
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}
