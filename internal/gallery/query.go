package gallery

import (
	"context"

	"brainprint/internal/linalg"
)

// Candidate is one ranked identification hypothesis: an enrolled
// subject and its Pearson correlation with the probe.
type Candidate struct {
	// Index is the subject's enrollment index in the gallery.
	Index int
	// ID is the enrolled subject ID.
	ID string
	// Score is the Pearson correlation between the probe and the
	// enrolled fingerprint — the same value match.SimilarityMatrix
	// would put at (Index, probe), bit for bit.
	Score float64
}

// TopK ranks the k enrolled subjects most correlated with the probe,
// best first, using the default worker count. The probe may be a
// gallery-space vector (len == Features()) or a raw vector when the
// gallery carries a feature index; it is projected and z-scored once,
// never mutated. k larger than the gallery is clamped.
func (g *Gallery) TopK(probe []float64, k int) ([]Candidate, error) {
	return g.TopKCtx(context.Background(), probe, k, 0)
}

// TopKCtx is TopK under a context and with an explicit parallelism knob
// (0 = all cores, 1 = serial, n = n workers): a batch of one through
// the exact-scan driver (scan.go) under the index-tiebreak order, so
// the ranking is bit-identical at any setting. The sweep aborts between
// scan units once ctx is cancelled and returns ctx.Err().
func (g *Gallery) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]Candidate, error) {
	k, err := ClampK(k, g.Len())
	if err != nil {
		return nil, err
	}
	zp, err := g.Normalize(probe)
	if err != nil {
		return nil, err
	}
	lists, err := ScanUnits(ctx, g.AppendUnits(nil, 0), [][]float64{zp}, k, parallelism, BetterByIndex, nil)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// QueryAll answers a batch of probes — the columns of a features×probes
// matrix — returning one ranked top-k list per probe, using the default
// worker count.
func (g *Gallery) QueryAll(probes *linalg.Matrix, k int) ([][]Candidate, error) {
	return g.QueryAllCtx(context.Background(), probes, k, 0)
}

// QueryAllCtx is QueryAll under a context and with an explicit
// parallelism knob. Probes are z-scored once up front (PrepProbes), then
// each scan unit streams once for the whole batch. Rankings are
// bit-identical at any setting; the batch aborts between units once ctx
// is cancelled and returns ctx.Err().
func (g *Gallery) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]Candidate, error) {
	k, err := ClampK(k, g.Len())
	if err != nil {
		return nil, err
	}
	zcols, err := PrepProbes(probes, g.features, g.featureIndex, parallelism)
	if err != nil {
		return nil, err
	}
	return ScanUnits(ctx, g.AppendUnits(nil, 0), zcols, k, parallelism, BetterByIndex, nil)
}

// DenseSimilarityCtx materializes the full gallery×probes similarity
// matrix — the exact-equivalence fallback path. Entry (i, j) is
// bit-identical to match.SimilarityMatrix(known, probes) at (i, j) when
// the gallery was enrolled from the columns of known: enrollment stored
// the same z-scored columns, probes normalize through the same code
// path, and each entry is the same Dot·(1/features) expression. The row
// sweep aborts between chunks once ctx is cancelled.
func (g *Gallery) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, error) {
	return DenseSimilarity(ctx, probes, g.Len(), g.features, g.featureIndex, g.fingerprint, parallelism)
}
