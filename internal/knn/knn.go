// Package knn implements the k-nearest-neighbour classifier used to
// assign task labels in the t-SNE embedding space (§3.3.2: "we assign
// the task labels of the unknown data-points on the basis of their
// nearest neighbor with known task label").
package knn

import (
	"fmt"
	"sort"
)

// Classifier is a fitted k-NN model over Euclidean space.
type Classifier struct {
	points [][]float64
	labels []int
	dims   int
}

// Fit stores the labelled reference points. All points must share one
// dimensionality and at least one point is required.
func Fit(points [][]float64, labels []int) (*Classifier, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("knn: no reference points")
	}
	if len(points) != len(labels) {
		return nil, fmt.Errorf("knn: %d points but %d labels", len(points), len(labels))
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("knn: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("knn: point %d has %d dims, want %d", i, len(p), d)
		}
	}
	cp := make([][]float64, len(points))
	for i, p := range points {
		cp[i] = append([]float64(nil), p...)
	}
	return &Classifier{points: cp, labels: append([]int(nil), labels...), dims: d}, nil
}

// Predict returns the majority label among the k nearest reference
// points (ties broken by the nearer neighbourhood). k is clamped to the
// reference size.
func (c *Classifier) Predict(x []float64, k int) (int, error) {
	if len(x) != c.dims {
		return 0, fmt.Errorf("knn: query has %d dims, want %d", len(x), c.dims)
	}
	if k <= 0 {
		return 0, fmt.Errorf("knn: nonpositive k %d", k)
	}
	if k > len(c.points) {
		k = len(c.points)
	}
	type cand struct {
		d2    float64
		label int
	}
	cands := make([]cand, len(c.points))
	for i, p := range c.points {
		var d2 float64
		for j := range p {
			diff := p[j] - x[j]
			d2 += diff * diff
		}
		cands[i] = cand{d2: d2, label: c.labels[i]}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d2 < cands[b].d2 })
	votes := make(map[int]int)
	best, bestVotes := cands[0].label, 0
	for i := 0; i < k; i++ {
		votes[cands[i].label]++
		// Nearer labels win ties because they reach each count first.
		if votes[cands[i].label] > bestVotes {
			best, bestVotes = cands[i].label, votes[cands[i].label]
		}
	}
	return best, nil
}

// PredictBatch classifies many queries.
func (c *Classifier) PredictBatch(xs [][]float64, k int) ([]int, error) {
	out := make([]int, len(xs))
	for i, x := range xs {
		l, err := c.Predict(x, k)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}
