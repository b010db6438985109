// Package sampling implements the row-sampling machinery of §3.1.2: the
// uniform, l2-norm (Drineas et al. 2006) and leverage-score
// distributions of the randomized row-sampling meta-algorithm
// (Algorithm 1), weighted selection without replacement, and
// the deterministic top-t leverage-score selection ("Principal Features
// Subspace Method", Ravindra et al. 2018) that the attack uses to find
// the small set of connectome features carrying the individual
// signature.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"brainprint/internal/linalg"
)

// Method selects the sampling probability distribution of Algorithm 1.
type Method int

// Sampling distributions.
const (
	// Uniform samples rows uniformly at random — the paper's strawman
	// that "performs poorly in practice".
	Uniform Method = iota
	// L2Norm samples rows proportionally to their squared Euclidean
	// norm, giving the additive error bound of Eq. 2.
	L2Norm
	// Leverage samples rows proportionally to their leverage scores,
	// giving the relative error bound of Eq. 4.
	Leverage
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Uniform:
		return "uniform"
	case L2Norm:
		return "l2-norm"
	case Leverage:
		return "leverage"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// LeverageScores returns the leverage score of every row of a: the
// squared row norms of an orthonormal basis U of the column space
// (Eq. 5). For the attack's tall matrices the basis is computed with the
// Gram-matrix thin SVD, which costs one pass over a plus an n×n
// eigenproblem.
func LeverageScores(a *linalg.Matrix) ([]float64, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("sampling: leverage scores need rows >= cols, got %dx%d", m, n)
	}
	f, err := linalg.ThinSVDGram(a)
	if err != nil {
		return nil, err
	}
	// Columns of U with (numerically) zero singular value are excluded:
	// they are arbitrary completions, not column-space directions.
	rank := f.Rank(1e-10)
	u := f.U
	scores := make([]float64, m)
	for i := 0; i < m; i++ {
		row := u.RowView(i)
		var s float64
		for k := 0; k < rank; k++ {
			s += row[k] * row[k]
		}
		scores[i] = s
	}
	return scores, nil
}

// TopK returns the indices of the k largest values, in descending value
// order. Ties are broken by index for determinism.
func TopK(values []float64, k int) ([]int, error) {
	if k <= 0 || k > len(values) {
		return nil, fmt.Errorf("sampling: k=%d out of range (1..%d)", k, len(values))
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] > values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k], nil
}

// PrincipalFeatures deterministically selects the t rows of a with the
// highest leverage scores — the principal features subspace of the
// paper. It returns the selected row indices (descending score) and the
// full score vector.
func PrincipalFeatures(a *linalg.Matrix, t int) ([]int, []float64, error) {
	scores, err := LeverageScores(a)
	if err != nil {
		return nil, nil, err
	}
	idx, err := TopK(scores, t)
	if err != nil {
		return nil, nil, err
	}
	return idx, scores, nil
}

// Probabilities returns the sampling distribution of the given method
// for the rows of a. The result sums to 1.
func Probabilities(a *linalg.Matrix, m Method) ([]float64, error) {
	rows, _ := a.Dims()
	if rows == 0 {
		return nil, fmt.Errorf("sampling: empty matrix")
	}
	p := make([]float64, rows)
	switch m {
	case Uniform:
		for i := range p {
			p[i] = 1 / float64(rows)
		}
	case L2Norm:
		norms := a.RowNormsSquared()
		var total float64
		for _, v := range norms {
			total += v
		}
		if total == 0 {
			return nil, fmt.Errorf("sampling: zero matrix has no l2 distribution")
		}
		for i, v := range norms {
			p[i] = v / total
		}
	case Leverage:
		scores, err := LeverageScores(a)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, v := range scores {
			total += v
		}
		if total == 0 {
			return nil, fmt.Errorf("sampling: zero leverage mass")
		}
		for i, v := range scores {
			p[i] = v / total
		}
	default:
		return nil, fmt.Errorf("sampling: unknown method %v", m)
	}
	return p, nil
}

// SelectWithoutReplacement draws k distinct indices from the given
// probability distribution (Efraimidis-Spirakis weighted reservoir
// selection via exponential keys). Zero-probability items are only
// drawn when the positive mass is exhausted.
func SelectWithoutReplacement(p []float64, k int, rng *rand.Rand) ([]int, error) {
	if k <= 0 || k > len(p) {
		return nil, fmt.Errorf("sampling: k=%d out of range (1..%d)", k, len(p))
	}
	type keyed struct {
		key float64
		idx int
	}
	keys := make([]keyed, len(p))
	for i, w := range p {
		switch {
		case w > 0:
			// Key = uniform^(1/w); larger keys win. Use logs for stability.
			keys[i] = keyed{key: math.Log(rng.Float64()) / w, idx: i}
		default:
			keys[i] = keyed{key: math.Inf(-1), idx: i}
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key > keys[b].key })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].idx
	}
	return out, nil
}
