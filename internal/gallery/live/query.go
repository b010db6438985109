package live

import (
	"context"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
)

// The merged query sweep. A live engine's visible records live in two
// places — the immutable base store and the memtable — but queries see
// one flat enumeration. The base (usually the overwhelming share of the
// records) goes through the sharded store's QueryAllZMasked — the exact
// driver every engine shares, or the IVF sweep — masking tombstoned
// records with the dead-mask rebuild() maintains; the memtable goes
// through that same exact driver directly — it is a Gallery, so its
// rows are scannable as they stand, and a deleted memtable record is
// physically gone, so it needs no mask; and the two rankings merge by
// tournament under the same (score descending, subject ID ascending)
// strict total order the sharded engine uses. A single probe is a batch
// of one through the same queryZ. Every record is scored with the
// identical linalg.Dot(fp, zp)/features expression whichever source
// holds it, so determinism holds by the same argument (DESIGN.md §6):
// the total order makes the merged top-k unique regardless of chunking,
// parallelism, or how many records have been compacted — which is what
// pins a live gallery's answers bit-identical to a cold
// offline-enrolled gallery of the same records.
//
// Every query holds the engine's read lock for its duration: queries
// run concurrently with each other, while mutations and the compaction
// swap wait for in-flight sweeps to drain. Under the write lock an
// enroll is cheap (one log fsync plus a memtable append), but a delete
// is O(overlay): a memtable delete physically rebuilds the memtable
// and any delete rebuilds the flat enumeration. Compaction is what
// bounds that cost — it empties the overlay and folds the tombstones,
// so delete-heavy workloads should compact (or set Options.
// CompactAfter) rather than accumulate an unbounded overlay.

// TopKCtx ranks the k enrolled subjects most correlated with the probe,
// best first, under a context and an explicit parallelism knob
// (0 = all cores, 1 = serial, n = n workers; results are identical at
// any setting): the sweep aborts between chunks once ctx is cancelled
// and returns ctx.Err(). The probe may be a gallery-space vector or a
// raw vector when the engine carries a feature index; k larger than the
// engine is clamped.
func (e *Engine) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]gallery.Candidate, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	k, err := gallery.ClampK(k, len(e.ids))
	if err != nil {
		return nil, err
	}
	zp, err := e.mem.Normalize(probe)
	if err != nil {
		return nil, err
	}
	lists, err := e.queryZ(ctx, [][]float64{zp}, k, parallelism)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// QueryAllCtx answers a batch of probes — the columns of a
// features×probes matrix — returning one ranked top-k list per probe,
// under a context and an explicit parallelism knob. Probes normalize
// through gallery.PrepProbes like every other engine's, so batch scores
// stay bit-identical; the batch aborts between probes once ctx is
// cancelled. Rankings are identical at any setting.
func (e *Engine) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]gallery.Candidate, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	k, err := gallery.ClampK(k, len(e.ids))
	if err != nil {
		return nil, err
	}
	zcols, err := gallery.PrepProbes(probes, e.features, e.fidx, parallelism)
	if err != nil {
		return nil, err
	}
	return e.queryZ(ctx, zcols, k, parallelism)
}

// DenseSimilarityCtx materializes the full engine×probes similarity
// matrix, rows in live enumeration order — the exact fallback the
// Hungarian assignment path consumes. The row labels are copied under
// the same read lock as the sweep, so a mutation after the call cannot
// relabel a row. The row sweep aborts between chunks once ctx is
// cancelled.
func (e *Engine) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, []string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sim, err := gallery.DenseSimilarity(ctx, probes, len(e.ids), e.features, e.fidx, e.fingerprint, parallelism)
	if err != nil {
		return nil, nil, err
	}
	return sim, append([]string(nil), e.ids...), nil
}

// queryZ is the merged sweep over z-scored, gallery-space probes: the
// masked base scan and the memtable scan, each for the whole batch, then
// per probe a tournament merge of the two. Candidates come back carrying
// base-store and memtable-local indices; the merged list is remapped to
// live enumeration indices. Called with the read lock held.
func (e *Engine) queryZ(ctx context.Context, zcols [][]float64, k, parallelism int) ([][]gallery.Candidate, error) {
	var baseLists [][]gallery.Candidate
	if visible := len(e.baseIdx); visible > 0 {
		var err error
		baseLists, err = e.base.QueryAllZMasked(ctx, zcols, min(k, visible), parallelism, e.baseSkip)
		if err != nil {
			return nil, err
		}
	}
	out, err := gallery.ScanUnits(ctx, e.mem.AppendUnits(nil, 0), zcols, k, parallelism, nil)
	if err != nil {
		return nil, err
	}
	for j := range out {
		if baseLists != nil {
			out[j] = gallery.RankMergeLists([][]gallery.Candidate{baseLists[j], out[j]}, k)
		}
		for i := range out[j] {
			out[j][i].Index = e.byID[out[j][i].ID]
		}
	}
	return out, nil
}
