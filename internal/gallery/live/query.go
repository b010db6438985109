package live

import (
	"context"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
)

// The merged query sweep. A live engine's visible records live in up to
// three places — the immutable base store, a memtable frozen by an
// in-flight compaction, and the active memtable — but queries see one
// flat enumeration. The base (usually the overwhelming share of the
// records) goes through the sharded store's QueryAllZMasked — the exact
// driver every engine shares, or the IVF sweep — masking tombstoned
// records with the dead-mask rebuild() maintains; the overlay is swept
// with the scalar exact expression; and the two rankings merge by
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

// TopK ranks the k enrolled subjects most correlated with the probe,
// best first, using the default worker count.
func (e *Engine) TopK(probe []float64, k int) ([]gallery.Candidate, error) {
	return e.TopKCtx(context.Background(), probe, k, 0)
}

// TopKCtx is TopK under a context and with an explicit parallelism knob
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

// QueryAll answers a batch of probes — the columns of a features×probes
// matrix — returning one ranked top-k list per probe.
func (e *Engine) QueryAll(probes *linalg.Matrix, k int) ([][]gallery.Candidate, error) {
	return e.QueryAllCtx(context.Background(), probes, k, 0)
}

// QueryAllCtx is QueryAll under a context and with an explicit
// parallelism knob. Probes normalize through gallery.PrepProbes like
// every other engine's, so batch scores stay bit-identical; the batch
// aborts between probes once ctx is cancelled. Rankings are identical
// at any setting.
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
// Hungarian assignment path consumes. The row sweep aborts between
// chunks once ctx is cancelled.
func (e *Engine) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return gallery.DenseSimilarity(ctx, probes, len(e.ids), e.features, e.fidx, e.fingerprint, parallelism)
}

// queryZ is the merged sweep over z-scored, gallery-space probes: the
// masked base scan for the whole batch, then per probe the scalar
// overlay sweep and a tournament merge of the two. Base candidates come
// back carrying base-store indices; they are remapped to live
// enumeration indices before the merge. Called with the read lock held.
func (e *Engine) queryZ(ctx context.Context, zcols [][]float64, k, parallelism int) ([][]gallery.Candidate, error) {
	var baseLists [][]gallery.Candidate
	if e.base != nil && e.baseVisible > 0 {
		var err error
		baseLists, err = e.base.QueryAllZMasked(ctx, zcols, min(k, e.baseVisible), parallelism, e.baseSkip)
		if err != nil {
			return nil, err
		}
	}
	out := make([][]gallery.Candidate, len(zcols))
	err := parallel.ForCtx(ctx, parallelism, len(zcols), 1, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			overlay := e.overlayTopK(zcols[j], k)
			if baseLists == nil {
				out[j] = overlay
				continue
			}
			bl := baseLists[j]
			for i := range bl {
				bl[i].Index = e.byID[bl[i].ID]
			}
			out[j] = gallery.RankMergeLists([][]gallery.Candidate{bl, overlay}, k, gallery.BetterByID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// overlayTopK ranks the overlay — the frozen memtable's survivors and
// the active memtable — against a z-scored probe with the scalar exact
// expression, each candidate carrying its live enumeration index. The
// overlay is bounded by compaction, so the scalar sweep stays cheap.
// Called with the read lock held.
func (e *Engine) overlayTopK(zp []float64, k int) []gallery.Candidate {
	inv := 1 / float64(e.features)
	r := gallery.NewRanker(k, gallery.BetterByID)
	li := e.baseVisible
	if e.frozen != nil {
		for i, n := 0, e.frozen.Len(); i < n; i++ {
			id := e.frozen.ID(i)
			if e.dead[id] {
				continue
			}
			r.Offer(gallery.Candidate{Index: li, ID: id, Score: linalg.Dot(e.frozen.Fingerprint(i), zp) * inv})
			li++
		}
	}
	for i, n := 0, e.mem.Len(); i < n; i++ {
		r.Offer(gallery.Candidate{Index: li, ID: e.mem.ID(i), Score: linalg.Dot(e.mem.Fingerprint(i), zp) * inv})
		li++
	}
	return r.Ranked()
}
