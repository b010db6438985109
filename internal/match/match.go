// Package match performs cross-dataset subject identification: it
// compares every subject of a de-anonymized group against every subject
// of an anonymous group by Pearson correlation in (reduced) feature
// space and predicts matches by maximum correlation, as in §3.1 ("pairs
// of subjects with high correlation correspond to predicted matches").
package match

import (
	"context"
	"fmt"

	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/stats"
)

// SimilarityMatrix computes the pairwise Pearson correlation between the
// columns (subjects) of two feature×subject matrices: entry (i, j) is
// the correlation between known subject i and anonymous subject j. The
// two matrices must have the same number of feature rows. It uses every
// core; SimilarityMatrixP exposes the worker knob.
func SimilarityMatrix(known, anon *linalg.Matrix) (*linalg.Matrix, error) {
	return SimilarityMatrixP(known, anon, 0)
}

// SimilarityMatrixP is SimilarityMatrix with an explicit parallelism
// knob (0 = all cores, 1 = serial, n = n workers). The known×anonymous
// similarity sweep — the O(subjects²·features) kernel at the heart of
// the attack — fans out over known-subject rows; each output row is
// written by exactly one worker, so every knob setting produces the
// same matrix.
func SimilarityMatrixP(known, anon *linalg.Matrix, parallelism int) (*linalg.Matrix, error) {
	return SimilarityMatrixCtx(context.Background(), known, anon, parallelism)
}

// SimilarityMatrixCtx is SimilarityMatrixP under a context: the row
// sweep aborts between chunks once ctx is cancelled and returns
// ctx.Err(). On success the matrix is bit-identical to every other
// entry point at any parallelism setting.
func SimilarityMatrixCtx(ctx context.Context, known, anon *linalg.Matrix, parallelism int) (*linalg.Matrix, error) {
	kf, kn := known.Dims()
	af, an := anon.Dims()
	if kf != af {
		return nil, fmt.Errorf("match: feature dimension mismatch %d vs %d", kf, af)
	}
	if kf == 0 || kn == 0 || an == 0 {
		return nil, fmt.Errorf("match: empty inputs %dx%d vs %dx%d", kf, kn, af, an)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Z-score columns once so each correlation is a single dot product.
	// The normalization prep is itself cancellable (between columns) so
	// even the pre-sweep phase of a paper-scale matrix aborts promptly.
	zk, err := zScoreColumnsCtx(ctx, known, parallelism)
	if err != nil {
		return nil, err
	}
	za, err := zScoreColumnsCtx(ctx, anon, parallelism)
	if err != nil {
		return nil, err
	}
	// Work column-major: extract columns once.
	kcols := make([][]float64, kn)
	err = parallel.ForCtx(ctx, parallelism, kn, 1+1024/kf, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			kcols[i] = zk.Col(i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	acols := make([][]float64, an)
	err = parallel.ForCtx(ctx, parallelism, an, 1+1024/kf, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			acols[j] = za.Col(j)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := linalg.NewMatrix(kn, an)
	inv := 1 / float64(kf)
	err = parallel.ForCtx(ctx, parallelism, kn, 1+4096/(kf*an+1), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			ki := kcols[i]
			orow := out.RowView(i)
			for j := 0; j < an; j++ {
				orow[j] = linalg.Dot(ki, acols[j]) * inv
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ZScoreColumns returns a copy of m with each column standardized to
// zero mean and unit population standard deviation (constant columns
// become zero). It is exported because the persistent fingerprint
// gallery normalizes probes through this exact code path: sharing it is
// what makes gallery top-k scores bit-identical to SimilarityMatrix.
func ZScoreColumns(m *linalg.Matrix, parallelism int) *linalg.Matrix {
	out, _ := zScoreColumnsCtx(context.Background(), m, parallelism)
	return out
}

// zScoreColumnsCtx is ZScoreColumns with cancellation between column
// chunks; it returns (nil, ctx.Err()) on abort.
func zScoreColumnsCtx(ctx context.Context, m *linalg.Matrix, parallelism int) (*linalg.Matrix, error) {
	rows, cols := m.Dims()
	out := linalg.NewMatrix(rows, cols)
	err := parallel.ForCtx(ctx, parallelism, cols, 1+2048/(rows+1), func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			col := m.Col(j)
			stats.ZScore(col)
			out.SetCol(j, col)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Predict returns, for every anonymous subject (column of the similarity
// matrix), the index of the known subject with the highest correlation.
func Predict(sim *linalg.Matrix) []int {
	rows, cols := sim.Dims()
	out := make([]int, cols)
	for j := 0; j < cols; j++ {
		best := 0
		for i := 1; i < rows; i++ {
			if sim.At(i, j) > sim.At(best, j) {
				best = i
			}
		}
		out[j] = best
	}
	return out
}

// Accuracy returns the fraction of anonymous subjects whose predicted
// identity matches the ground truth. truth[j] is the known-group index
// of anonymous subject j; pass nil when the groups are aligned
// (truth[j] = j).
func Accuracy(sim *linalg.Matrix, truth []int) (float64, error) {
	_, cols := sim.Dims()
	if truth != nil && len(truth) != cols {
		return 0, fmt.Errorf("match: truth length %d != %d subjects", len(truth), cols)
	}
	if cols == 0 {
		return 0, fmt.Errorf("match: empty similarity matrix")
	}
	pred := Predict(sim)
	correct := 0
	for j, p := range pred {
		want := j
		if truth != nil {
			want = truth[j]
		}
		if p == want {
			correct++
		}
	}
	return float64(correct) / float64(cols), nil
}

// DiagonalContrast summarizes a square similarity matrix the way the
// paper's Figures 1, 2 and 7–9 read: the mean of the diagonal
// (intra-subject similarity) and the mean of the off-diagonal entries
// (inter-subject similarity).
func DiagonalContrast(sim *linalg.Matrix) (diagMean, offMean float64, err error) {
	rows, cols := sim.Dims()
	if rows != cols || rows == 0 {
		return 0, 0, fmt.Errorf("match: diagonal contrast needs a nonempty square matrix, got %dx%d", rows, cols)
	}
	var dsum, osum float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i == j {
				dsum += sim.At(i, j)
			} else {
				osum += sim.At(i, j)
			}
		}
	}
	diagMean = dsum / float64(rows)
	if rows > 1 {
		offMean = osum / float64(rows*(rows-1))
	}
	return diagMean, offMean, nil
}
