package connectome

import "math"

// This file provides the weighted-graph view of a connectome (§1 reads
// the co-firing matrix as "a weighted complete graph, where nodes
// correspond to regions and edge weights correspond to correlation in
// neuronal activity"). Clustering is a standard descriptive statistic
// of connectomics that downstream analyses of a released dataset would
// compute, which is why the defense experiment checks it is preserved.

// ClusteringCoefficients returns the Onnela weighted clustering
// coefficient of every region: the geometric mean of triangle edge
// weights around the node, normalized by degree. Negative correlations
// contribute their absolute value (the standard convention for
// correlation networks). Regions with degree < 2 get coefficient 0.
func (c *Connectome) ClusteringCoefficients() []float64 {
	n := c.C.Rows()
	// Normalize weights to [0, 1] by the maximum absolute off-diagonal
	// weight, per Onnela et al.
	var wmax float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := math.Abs(c.C.At(i, j)); w > wmax {
				wmax = w
			}
		}
	}
	out := make([]float64, n)
	if wmax == 0 {
		return out
	}
	w := func(i, j int) float64 { return math.Abs(c.C.At(i, j)) / wmax }
	for i := 0; i < n; i++ {
		var sum float64
		deg := n - 1 // complete weighted graph
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for k := j + 1; k < n; k++ {
				if k == i {
					continue
				}
				sum += math.Cbrt(w(i, j) * w(j, k) * w(i, k))
			}
		}
		out[i] = 2 * sum / float64(deg*(deg-1))
	}
	return out
}
