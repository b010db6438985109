package gallery

import (
	"context"
	"fmt"

	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/parallel"
	"brainprint/internal/stats"
)

// This file is the code every engine runs around its scan: moving
// vectors into gallery space, preparing a probe batch, validating k,
// and the dense row sweep. The sharded store and the live engine both
// call these — one normalization pipeline is what keeps their scores
// bit-identical to each other and to match.SimilarityMatrix. Each takes
// the engine's geometry (feature count plus optional raw-space feature
// index) as plain arguments.

// Normalize projects v into gallery space and z-scores it — the
// transformation behind every enrollment and every single-probe query.
// The argument is never mutated.
func Normalize(v []float64, features int, index []int) ([]float64, error) {
	z, err := project(v, features, index)
	if err != nil {
		return nil, err
	}
	stats.ZScore(z)
	return z, nil
}

// project copies v into gallery space: identity when v already has
// features entries, a gather through the feature index when there is one
// and v is a longer raw vector.
func project(v []float64, features int, index []int) ([]float64, error) {
	if len(v) == features {
		out := make([]float64, features)
		copy(out, v)
		return out, nil
	}
	if index == nil {
		return nil, fmt.Errorf("%w: got %d features, gallery has %d", ErrDimMismatch, len(v), features)
	}
	out := make([]float64, features)
	for k, idx := range index {
		if idx < 0 || idx >= len(v) {
			return nil, fmt.Errorf("%w: feature index %d outside raw vector of length %d", ErrDimMismatch, idx, len(v))
		}
		out[k] = v[idx]
	}
	return out, nil
}

// PrepProbes converts a features×probes matrix into z-scored
// gallery-space probe vectors, one per column, projecting through the
// feature index when the probes are raw-space. Columns normalize through
// the same match.ZScoreColumns path the dense attack uses.
func PrepProbes(probes *linalg.Matrix, features int, index []int, parallelism int) ([][]float64, error) {
	f, m := probes.Dims()
	if m == 0 {
		return nil, fmt.Errorf("gallery: no probe columns")
	}
	gal := probes
	if f != features {
		if index == nil {
			return nil, fmt.Errorf("%w: probes have %d features, gallery has %d", ErrDimMismatch, f, features)
		}
		for _, idx := range index {
			if idx < 0 || idx >= f {
				return nil, fmt.Errorf("%w: feature index %d outside raw probes with %d features", ErrDimMismatch, idx, f)
			}
		}
		gal = probes.SelectRows(index)
	}
	z := match.ZScoreColumns(gal, parallelism)
	cols := make([][]float64, m)
	parallel.ForWith(parallelism, m, 1+1024/features, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			cols[j] = z.Col(j)
		}
	})
	return cols, nil
}

// ClampK validates a top-k request against an engine of n records,
// clamping k to n.
func ClampK(k, n int) (int, error) {
	if n == 0 {
		return 0, fmt.Errorf("gallery: empty gallery")
	}
	if k <= 0 {
		return 0, fmt.Errorf("gallery: k=%d must be positive", k)
	}
	return min(k, n), nil
}

// DenseSimilarity materializes the full n×probes similarity matrix of an
// engine whose record i is fp(i) — the exact-equivalence path behind
// every engine's DenseSimilarityCtx. Entry (i, j) is
// linalg.Dot(fp(i), z_j)·(1/features), bit-identical to
// match.SimilarityMatrix at (i, j) over the same vectors. The row sweep
// aborts between chunks once ctx is cancelled.
func DenseSimilarity(ctx context.Context, probes *linalg.Matrix, n, features int, index []int, fp func(i int) []float64, parallelism int) (*linalg.Matrix, error) {
	if n == 0 {
		return nil, fmt.Errorf("gallery: empty gallery")
	}
	zcols, err := PrepProbes(probes, features, index, parallelism)
	if err != nil {
		return nil, err
	}
	m := len(zcols)
	out := linalg.NewMatrix(n, m)
	inv := 1 / float64(features)
	err = parallel.ForCtx(ctx, parallelism, n, 1+4096/(features*m+1), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v := fp(i)
			orow := out.RowView(i)
			for j, zc := range zcols {
				orow[j] = linalg.Dot(v, zc) * inv
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BetterByID reports whether a outranks b: higher score first, ties
// broken by the lexicographically smaller subject ID. It is the one
// ranking order: every engine and the dense assignment path rank under
// it. Unlike an index tiebreak it is invariant under resharding and
// compaction — indices change when records move, IDs never do — and a
// strict total order, so top-k results are identical at any
// parallelism and any chunking.
func BetterByID(a, b Candidate) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.ID < b.ID)
}
