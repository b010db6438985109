package shard

import (
	"context"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
)

// The public query surface. Probes are validated, projected, and
// z-scored by the shared gallery helpers, then dispatched by scan.go to
// the shared exact-scan driver (gallery.ScanUnits) or the IVF sweep
// (ann.go); a single probe is a batch of one. Both rank under
// gallery.BetterByID (score descending, subject ID ascending), a strict
// total order, which makes the result independent of chunking, worker
// count, and shard placement; see the package comment for the full
// determinism argument.

// TopKCtx ranks the k enrolled subjects most correlated with the probe,
// best first. The probe may be a gallery-space vector (len ==
// Features()) or a raw vector when the store carries a feature index;
// it is projected and z-scored once, never mutated. k larger than the
// store is clamped. parallelism is the worker knob (0 = all cores,
// 1 = serial, n = n workers): the sweep aborts between scan units once
// ctx is cancelled and returns ctx.Err(). Results are identical at any
// setting and any shard count. Scores are bit-identical to
// match.SimilarityMatrix, and exact score ties rank by subject ID
// (gallery.BetterByID), the order every engine uses.
func (s *Store) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]gallery.Candidate, error) {
	k, err := gallery.ClampK(k, s.total)
	if err != nil {
		return nil, err
	}
	zp, err := gallery.Normalize(probe, s.features, s.featureIndex)
	if err != nil {
		return nil, err
	}
	lists, err := s.QueryAllZMasked(ctx, [][]float64{zp}, k, parallelism, nil)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// QueryAllCtx answers a batch of probes — the columns of a
// features×probes matrix — returning one ranked top-k list per probe,
// under a context and an explicit parallelism knob. Probes are z-scored
// once up front (the same match.ZScoreColumns path the dense attack
// uses); the batch aborts between scan units once ctx is cancelled.
// Rankings are identical at any setting.
func (s *Store) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]gallery.Candidate, error) {
	k, err := gallery.ClampK(k, s.total)
	if err != nil {
		return nil, err
	}
	zcols, err := gallery.PrepProbes(probes, s.features, s.featureIndex, parallelism)
	if err != nil {
		return nil, err
	}
	return s.QueryAllZMasked(ctx, zcols, k, parallelism, nil)
}

// DenseSimilarityCtx materializes the full store×probes similarity
// matrix, rows in global index order — the exact fallback the Hungarian
// assignment path consumes. Entries are bit-identical to
// match.SimilarityMatrix over the same subjects; the row labels are
// the store's immutable IDs. The row sweep aborts between chunks once
// ctx is cancelled.
func (s *Store) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, []string, error) {
	sim, err := gallery.DenseSimilarity(ctx, probes, s.total, s.features, s.featureIndex, s.Fingerprint, parallelism)
	if err != nil {
		return nil, nil, err
	}
	return sim, s.allIDs, nil
}
