// Package stats provides the descriptive statistics and correlation
// measures used throughout the attack pipeline: means and variances,
// z-scoring, Pearson correlation, the regression error metric and
// accuracy summaries.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x (dividing by n), or 0
// for slices with fewer than one element.
func Variance(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}

// SampleVariance returns the unbiased sample variance (dividing by n−1),
// or 0 for slices with fewer than two elements.
func SampleVariance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// SampleStdDev returns the sample standard deviation of x.
func SampleStdDev(x []float64) float64 { return math.Sqrt(SampleVariance(x)) }

// MinMax returns the minimum and maximum of x.
// It panics on an empty slice.
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ZScore standardizes x in place to zero mean and unit population
// standard deviation. A constant series is centred but left unscaled,
// and false is returned to flag the degenerate case.
func ZScore(x []float64) bool {
	m := Mean(x)
	sd := StdDev(x)
	if sd == 0 {
		for i := range x {
			x[i] -= m
		}
		return false
	}
	inv := 1 / sd
	for i := range x {
		x[i] = (x[i] - m) * inv
	}
	return true
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either series is constant, and an error when the
// lengths differ or are zero.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Pearson length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return 0, fmt.Errorf("stats: Pearson of empty series")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// RMSE returns the root mean squared error between predictions and
// targets. It returns an error on length mismatch or empty input.
func RMSE(pred, target []float64) (float64, error) {
	if len(pred) != len(target) {
		return 0, fmt.Errorf("stats: RMSE length mismatch %d vs %d", len(pred), len(target))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("stats: RMSE of empty input")
	}
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// Summary holds a mean ± standard-deviation pair, the format the paper
// uses for repeated-trial results.
type Summary struct {
	Mean, Std float64
	N         int
}

// Summarize computes the mean and sample standard deviation of the
// trials.
func Summarize(trials []float64) Summary {
	return Summary{Mean: Mean(trials), Std: SampleStdDev(trials), N: len(trials)}
}

// String renders the summary as "mean ± std" with two decimals, matching
// the paper's presentation.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.Std)
}

// FisherZ applies the Fisher z-transform atanh(r) to a correlation,
// clamping |r| slightly below 1 to keep the result finite.
func FisherZ(r float64) float64 {
	const clamp = 1 - 1e-12
	if r > clamp {
		r = clamp
	} else if r < -clamp {
		r = -clamp
	}
	return math.Atanh(r)
}
