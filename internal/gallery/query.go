package gallery

import (
	"context"

	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
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

// better reports whether a outranks b. Ties break toward the lower
// enrollment index, making the ranking a total order: top-k results are
// identical at any parallelism setting and any chunking.
func better(a, b Candidate) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.Index < b.Index)
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
// (0 = all cores, 1 = serial, n = n workers). The gallery sweep is
// blocked: each worker chunk keeps a local ranked list of at most k
// candidates, and partial lists merge in ascending chunk order, so the
// ranking is bit-identical at any setting. The sweep aborts between
// chunks once ctx is cancelled and returns ctx.Err().
func (g *Gallery) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]Candidate, error) {
	k, err := ClampK(k, g.Len())
	if err != nil {
		return nil, err
	}
	zp, err := g.Normalize(probe)
	if err != nil {
		return nil, err
	}
	return g.topK(ctx, zp, k, parallelism)
}

// QueryAll answers a batch of probes — the columns of a features×probes
// matrix — returning one ranked top-k list per probe, using the default
// worker count.
func (g *Gallery) QueryAll(probes *linalg.Matrix, k int) ([][]Candidate, error) {
	return g.QueryAllCtx(context.Background(), probes, k, 0)
}

// QueryAllCtx is QueryAll under a context and with an explicit
// parallelism knob. Probes are z-scored once up front (PrepProbes), then
// record ranges fan out across workers, each scanned once for the whole
// batch. Rankings are bit-identical at any setting; the batch aborts
// between ranges once ctx is cancelled and returns ctx.Err().
func (g *Gallery) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]Candidate, error) {
	k, err := ClampK(k, g.Len())
	if err != nil {
		return nil, err
	}
	zcols, err := PrepProbes(probes, g.features, g.featureIndex, parallelism)
	if err != nil {
		return nil, err
	}
	return g.queryAllZ(ctx, zcols, k, parallelism)
}

// queryAllZ is the batched multi-probe sweep over z-scored gallery-space
// probes: workers claim record ranges (not probes), and each range is
// scanned once through the probe-tiled batch kernel for every probe —
// one pass over the records per four probes instead of one pass per
// probe. Per-probe partial lists merge across ranges by tournament.
// Record ranges shrink when more workers are available; the result is
// unaffected because per-(record, probe) scores do not depend on
// chunking and the selection order is a strict total order.
func (g *Gallery) queryAllZ(ctx context.Context, zcols [][]float64, k, parallelism int) ([][]Candidate, error) {
	bk := g.Blocked()
	inv := 1 / float64(g.features)
	n := g.Len()
	grain := 1 + (1<<18)/g.features
	if w := parallel.Workers(parallelism); w > 1 {
		if per := 1 + n/(4*w); per < grain {
			grain = per
		}
	}
	grain = alignLanes(grain)
	units := (n + grain - 1) / grain
	partials := make([][][]Candidate, units) // [unit][probe]
	err := parallel.ForCtx(ctx, parallelism, units, 1, func(ulo, uhi int) error {
		for u := ulo; u < uhi; u++ {
			lo := u * grain
			partials[u] = g.scanSelectBatch(bk, lo, min(lo+grain, n), zcols, inv, k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Candidate, len(zcols))
	lists := make([][]Candidate, units)
	for p := range out {
		for u := range partials {
			lists[u] = partials[u][p]
		}
		top := RankMergeLists(lists, k, better)
		for i := range top {
			top[i].ID = g.ids[top[i].Index]
		}
		out[p] = top
	}
	return out, nil
}

// scanBatchStripe is the record width of one batched kernel pass: small
// enough that the per-probe dot buffers of a large probe batch stay
// cache-resident alongside the streamed records.
const scanBatchStripe = 256

// scanSelectBatch scores records [lo, hi) against every probe through
// the probe-tiled blocked kernel and selects, per probe, the top k
// under the index-tiebreak order. lo must sit on a lane-block boundary.
// Candidate IDs are left unset for the caller to fill after the final
// merge.
func (g *Gallery) scanSelectBatch(bk *Blocked, lo, hi int, zps [][]float64, inv float64, k int) [][]Candidate {
	rankers := make([]Ranker, len(zps))
	for p := range rankers {
		rankers[p] = *NewRanker(k, better)
	}
	stripe := min(scanBatchStripe, alignLanes(hi-lo))
	buf := make([]float64, len(zps)*stripe)
	outs := make([][]float64, len(zps))
	for p := range outs {
		outs[p] = buf[p*stripe : (p+1)*stripe]
	}
	for slo := lo; slo < hi; slo += stripe {
		shi := min(slo+stripe, hi)
		nd := alignLanes(shi - slo)
		for p := range outs {
			clear(outs[p][:nd])
		}
		bk.DotsF64Batch(slo, shi, zps, outs)
		for p := range rankers {
			r := &rankers[p]
			d := outs[p]
			thr, full := r.Threshold()
			for i := slo; i < shi; i++ {
				sc := d[i-slo] * inv
				if full && (sc < thr.Score || (sc == thr.Score && i > thr.Index)) {
					continue
				}
				r.Offer(Candidate{Index: i, Score: sc})
				thr, full = r.Threshold()
			}
		}
	}
	lists := make([][]Candidate, len(zps))
	for p := range rankers {
		lists[p] = rankers[p].Ranked()
	}
	return lists
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

// scanStripe is the record width of one kernel pass in the top-k scan:
// the dot-product buffer it implies (8 KiB of float64) stays cache-hot
// between the kernel and the selection loop that consumes it.
const scanStripe = 1024

// topK is the blocked sweep over a z-scored, gallery-space probe: score
// every enrolled subject through the blocked 4-lane kernel, keep the
// best k with a bounded heap. Chunks produce local ranked lists;
// parallel.ReduceCtx folds them in chunk order, so the ranking is
// identical at any parallelism and a cancelled ctx aborts between
// chunks. Each score is still the linalg.Dot(fingerprint, zp)·(1/F)
// expression bit for bit (the blocked kernel preserves per-record
// accumulation order), so results stay bit-identical to the pre-blocked
// sweep and to DenseSimilarityCtx.
func (g *Gallery) topK(ctx context.Context, zp []float64, k, parallelism int) ([]Candidate, error) {
	bk := g.Blocked()
	inv := 1 / float64(g.features)
	grain := alignLanes(1 + (1<<18)/g.features) // ≈256k multiplies per chunk, whole lane blocks
	lists, err := parallel.ReduceCtx(ctx, parallelism, g.Len(), grain, nil,
		func(lo, hi int) []Candidate {
			return g.scanSelect(bk, lo, hi, zp, inv, k)
		},
		func(acc, part []Candidate) []Candidate { return mergeRanked(acc, part, k) },
	)
	if err != nil {
		return nil, err
	}
	for i := range lists {
		lists[i].ID = g.ids[lists[i].Index]
	}
	return lists, nil
}

// scanSelect scores records [lo, hi) through the blocked kernel in
// stripes and selects the top k under the index-tiebreak order. lo must
// sit on a lane-block boundary. Candidate IDs are left unset — the
// caller fills them for the k survivors only, keeping ID bookkeeping
// off the hot loop.
func (g *Gallery) scanSelect(bk *Blocked, lo, hi int, zp []float64, inv float64, k int) []Candidate {
	r := NewRanker(k, better)
	dots := make([]float64, scanStripe)
	for slo := lo; slo < hi; slo += scanStripe {
		shi := min(slo+scanStripe, hi)
		d := dots[:alignLanes(shi-slo)]
		clear(d)
		bk.DotsF64(slo, shi, zp, d)
		thr, full := r.Threshold()
		for i := slo; i < shi; i++ {
			sc := d[i-slo] * inv
			if full && (sc < thr.Score || (sc == thr.Score && i > thr.Index)) {
				continue
			}
			r.Offer(Candidate{Index: i, Score: sc})
			thr, full = r.Threshold()
		}
	}
	return r.Ranked()
}

// mergeRanked merges two descending-ranked lists, keeping at most k.
// Equal-score ties resolve by index through better, so the merge is
// order-deterministic.
func mergeRanked(a, b []Candidate, k int) []Candidate {
	return RankMerge(a, b, k, better)
}

// RankInsert inserts c into a descending-ranked list bounded at k
// under the strict total order outranks (true when a outranks b). It
// is the single implementation of bounded ranked insertion shared by
// this package (index tiebreak) and the sharded store (subject-ID
// tiebreak); the list is mutated and returned.
func RankInsert(list []Candidate, c Candidate, k int, outranks func(a, b Candidate) bool) []Candidate {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if outranks(c, list[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= k {
		return list
	}
	if len(list) < k {
		list = append(list, Candidate{})
	}
	copy(list[lo+1:], list[lo:])
	list[lo] = c
	return list
}

// RankMerge merges two lists descending-ranked under outranks, keeping
// at most k. A strict total order makes the merge deterministic
// regardless of how candidates were partitioned into a and b.
func RankMerge(a, b []Candidate, k int, outranks func(a, b Candidate) bool) []Candidate {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Candidate, 0, min(len(a)+len(b), k))
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		if j >= len(b) || (i < len(a) && outranks(a[i], b[j])) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}
