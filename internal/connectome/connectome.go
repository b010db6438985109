// Package connectome builds functional connectomes: region×region
// correlation matrices computed from region-averaged time series, their
// vectorized (upper-triangle) feature form, and the group matrices the
// attack operates on (features × subjects).
//
// A connectome can equivalently be read as a weighted complete graph
// whose nodes are regions and whose edge weights are co-activation
// correlations (§1); graph.go computes its clustering coefficients.
package connectome

import (
	"fmt"

	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/stats"
)

// Connectome is the functional connectome of one scan: a symmetric
// regions×regions Pearson correlation matrix with unit diagonal.
type Connectome struct {
	C *linalg.Matrix
}

// Options configures connectome construction.
type Options struct {
	// FisherZ applies the Fisher z-transform atanh(r) to every
	// correlation, a common variance-stabilization step.
	FisherZ bool
	// Parallelism bounds the workers of the O(regions²·time) correlation
	// sweep: 0 uses every core, 1 runs serially, n pins n workers. The
	// connectome is identical at any setting.
	Parallelism int
}

// FromRegionSeries computes the connectome of a regions×time matrix:
// every row is z-scored and pairwise Pearson correlations are assembled
// into the co-firing matrix of §3.1.1. Constant rows (e.g. empty atlas
// regions) correlate 0 with everything.
func FromRegionSeries(series *linalg.Matrix, opt Options) (*Connectome, error) {
	n, t := series.Dims()
	if n == 0 || t < 2 {
		return nil, fmt.Errorf("connectome: need at least 1 region and 2 time points, got %dx%d", n, t)
	}
	// Z-score rows; after normalization, Pearson correlation reduces to a
	// scaled dot product, which keeps the O(n²t) loop tight. Rows are
	// independent, so they normalize concurrently.
	z := linalg.NewMatrix(n, t)
	valid := make([]bool, n)
	parallel.ForWith(opt.Parallelism, n, 1+4096/t, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := series.Row(i)
			valid[i] = stats.ZScore(row)
			z.SetRow(i, row)
		}
	})
	// The pair sweep is parallel over the outer region index. Row i of
	// the sweep writes c[i][j] and c[j][i] for j > i only — every matrix
	// element has exactly one writing iteration, so bands race nowhere
	// and the result matches the serial sweep exactly. Work per i shrinks
	// as i grows (triangular loop); grain 1 lets the dynamic scheduler
	// balance the load.
	c := linalg.NewMatrix(n, n)
	raw := c.RawData()
	inv := 1 / float64(t)
	parallel.ForWith(opt.Parallelism, n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			raw[i*n+i] = 1
			if !valid[i] {
				continue
			}
			zi := z.RowView(i)
			for j := i + 1; j < n; j++ {
				if !valid[j] {
					continue
				}
				r := linalg.Dot(zi, z.RowView(j)) * inv
				// Clamp tiny numerical excursions outside [−1, 1].
				if r > 1 {
					r = 1
				} else if r < -1 {
					r = -1
				}
				if opt.FisherZ {
					r = stats.FisherZ(r)
				}
				raw[i*n+j] = r
				raw[j*n+i] = r
			}
		}
	})
	return &Connectome{C: c}, nil
}

// NumRegions returns the number of regions.
func (c *Connectome) NumRegions() int { return c.C.Rows() }

// NumEdges returns the number of distinct region pairs.
func (c *Connectome) NumEdges() int {
	n := c.C.Rows()
	return n * (n - 1) / 2
}

// Vectorize flattens the strict upper triangle of the connectome into a
// feature vector of length n(n−1)/2, ordered row-major: (0,1), (0,2),
// …, (0,n−1), (1,2), …. The paper exploits the symmetry of the matrix in
// exactly this way (§3.1.1).
func (c *Connectome) Vectorize() []float64 {
	n := c.C.Rows()
	out := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, c.C.At(i, j))
		}
	}
	return out
}

// FromVector rebuilds a connectome from its vectorized upper triangle
// (the inverse of Vectorize): the diagonal is set to 1 and both
// triangles are filled symmetrically. n is the region count; the vector
// must have exactly n(n−1)/2 entries.
func FromVector(vec []float64, n int) (*Connectome, error) {
	want := n * (n - 1) / 2
	if len(vec) != want {
		return nil, fmt.Errorf("connectome: vector length %d != %d for %d regions", len(vec), want, n)
	}
	c := linalg.NewMatrix(n, n)
	k := 0
	for i := 0; i < n; i++ {
		c.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			c.Set(i, j, vec[k])
			c.Set(j, i, vec[k])
			k++
		}
	}
	return &Connectome{C: c}, nil
}

// EdgeFromIndex returns the region pair (i, j), i < j, at the given
// position of the vectorized form.
func EdgeFromIndex(n, idx int) (int, int, error) {
	if idx < 0 || idx >= n*(n-1)/2 {
		return 0, 0, fmt.Errorf("connectome: edge index %d out of range for %d regions", idx, n)
	}
	// Walk rows; each row i contributes n−1−i edges.
	i := 0
	for {
		rowLen := n - 1 - i
		if idx < rowLen {
			return i, i + 1 + idx, nil
		}
		idx -= rowLen
		i++
	}
}

// GroupMatrix stacks vectorized connectomes into the group matrix of
// §3.1.2: one column per subject (scan), one row per connectome feature.
// All connectomes must share the same region count.
func GroupMatrix(cons []*Connectome) (*linalg.Matrix, error) {
	if len(cons) == 0 {
		return nil, fmt.Errorf("connectome: empty group")
	}
	n := cons[0].NumRegions()
	m := cons[0].NumEdges()
	out := linalg.NewMatrix(m, len(cons))
	for s, c := range cons {
		if c.NumRegions() != n {
			return nil, fmt.Errorf("connectome: subject %d has %d regions, want %d", s, c.NumRegions(), n)
		}
		out.SetCol(s, c.Vectorize())
	}
	return out, nil
}

// GroupMatrixFromVectors stacks precomputed feature vectors (one per
// subject) into a features×subjects group matrix.
func GroupMatrixFromVectors(vecs [][]float64) (*linalg.Matrix, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("connectome: empty group")
	}
	m := len(vecs[0])
	out := linalg.NewMatrix(m, len(vecs))
	for s, v := range vecs {
		if len(v) != m {
			return nil, fmt.Errorf("connectome: subject %d has %d features, want %d", s, len(v), m)
		}
		out.SetCol(s, v)
	}
	return out, nil
}
