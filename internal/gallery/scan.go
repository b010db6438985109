package gallery

import (
	"context"

	"brainprint/internal/parallel"
)

// The exact-scan driver. Every engine's exact sweep — the sharded store
// over every shard (one, for a wrapped single-file gallery), the live
// engine over its masked base and over its memtable overlay — is the
// same three steps:
//
//	units      each gallery is cut into contiguous record ranges of
//	           roughly 256k multiply-adds (AppendUnits); the plan
//	           depends only on record counts and dimensionality.
//	runs       the unit list is cut into contiguous runs that workers
//	           claim dynamically. A run owns one ranker per probe and
//	           one dot buffer for all of its units, so the selection
//	           threshold carries from unit to unit — across shard
//	           boundaries too — and later units reject almost every
//	           record in O(1). One worker means exactly one run.
//	tournament per-run rankings merge by RankMergeLists.
//
// A single probe is a batch of one (DotsF64Batch falls through to the
// one-probe kernel). Because the order is a strict total order and
// per-(record, probe) scores never depend on where a unit or run
// starts, the result is the unique global top-k whatever the unit
// boundaries, run boundaries, worker count, or shard count.

// scanStripe is the record width of one kernel pass: small enough that
// the per-probe dot buffers of a large probe batch stay cache-resident
// alongside the streamed records.
const scanStripe = 256

// inlineProbes is the largest batch whose dot-buffer slice headers a run
// keeps in its frame (two kernel panels, 384 bytes): single-probe
// queries and small batches then allocate only the dot buffer. A wider
// batch allocates its headers once per run.
const inlineProbes = 2 * panelLanes

// runsPerWorker is how many runs each worker can expect to claim: a
// few, so a descheduled worker delays the sweep by a fraction of its
// share, while ranker sets and scratch stay per run, not per unit.
const runsPerWorker = 4

// Unit is one contiguous range of a gallery's enrollment index space —
// the unit of work of an exact scan.
type Unit struct {
	// G is the gallery whose rows the unit streams.
	G *Gallery
	// Base is the index a candidate from G's record 0 carries: 0 for a
	// gallery scanned alone, the shard's first global index in a store.
	Base int
	// Lo and Hi bound the records [Lo, Hi) in G's local index space.
	Lo, Hi int
}

// AppendUnits appends the scan units covering every record of g, in
// index order, each of roughly 256k multiply-adds. A gallery with no
// records appends nothing.
func (g *Gallery) AppendUnits(units []Unit, base int) []Unit {
	grain := 1 + (1<<18)/g.features
	for lo := 0; lo < g.Len(); lo += grain {
		units = append(units, Unit{G: g, Base: base, Lo: lo, Hi: min(lo+grain, g.Len())})
	}
	return units
}

// ScanUnits is the exact sweep: it ranks, for each z-scored
// gallery-space probe, the top k records of the unit list under
// BetterByID, excluding every record whose candidate index i has
// skip[i] true (skip nil = no exclusions). Every unit's gallery has the
// probes' dimensionality. k must be positive; a list is shorter than k
// only when fewer unmasked records exist, and empty for an empty unit
// list. Every score is
// linalg.Dot(fingerprint, probe)·(1/features) bit for bit — the
// streaming kernel preserves per-record accumulation order — so results
// match DenseSimilarity and match.SimilarityMatrix. The batch's probe
// panels are packed once and shared read-only by every run. The sweep
// aborts between units once ctx is cancelled and returns ctx.Err().
func ScanUnits(ctx context.Context, units []Unit, zps [][]float64, k, parallelism int, skip []bool) ([][]Candidate, error) {
	var panels []float64
	if len(units) > 0 {
		sp := packPanels(zps, units[0].G.features)
		defer panelPool.Put(sp)
		panels = *sp
	}
	return SelectRuns(ctx, len(units), len(zps), k, parallelism, func(lo, hi int, rankers []Ranker) error {
		// The run's scratch: per-probe slice headers over one dot
		// buffer. Headers for a batch of up to inlineProbes live in the
		// run's frame, so buf is the run's only scratch allocation.
		var hdr [inlineProbes][]float64
		outs := hdr[:min(len(zps), inlineProbes)]
		if len(zps) > inlineProbes {
			outs = make([][]float64, len(zps))
		}
		var buf []float64
		for _, u := range units[lo:hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			buf = u.scan(zps, panels, rankers, outs, buf, skip)
		}
		return nil
	})
}

// SelectRuns is the selection driver under every scan: it cuts units
// [0, units) into contiguous runs, hands each run a fresh set of
// per-probe rankers of capacity k, has scan offer the run's candidates
// to them, and tournament-merges the per-run rankings into one
// best-first list per probe. With one worker (or one unit) there is
// exactly one run and no merge; with no units there is no run and every
// list is empty. scan owns [lo, hi) exclusively; runs may execute
// concurrently. A cancelled ctx stops further runs and returns
// ctx.Err().
func SelectRuns(ctx context.Context, units, probes, k, parallelism int, scan func(lo, hi int, rankers []Ranker) error) ([][]Candidate, error) {
	if units == 0 {
		return make([][]Candidate, probes), nil
	}
	per := units
	if w := min(parallel.Workers(parallelism), units); w > 1 {
		per = (units + runsPerWorker*w - 1) / (runsPerWorker * w)
	}
	partials := make([][][]Candidate, (units+per-1)/per) // [run][probe]
	err := parallel.ForCtx(ctx, parallelism, units, per, func(lo, hi int) error {
		rankers := make([]Ranker, probes)
		for p := range rankers {
			rankers[p] = *NewRanker(k)
		}
		if err := scan(lo, hi, rankers); err != nil {
			return err
		}
		lists := make([][]Candidate, probes)
		for p := range rankers {
			lists[p] = rankers[p].Ranked()
		}
		partials[lo/per] = lists
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(partials) == 1 {
		return partials[0], nil
	}
	out := make([][]Candidate, probes)
	lists := make([][]Candidate, len(partials))
	for p := range out {
		for r := range partials {
			lists[r] = partials[r][p]
		}
		out[p] = RankMergeLists(lists, k)
	}
	return out, nil
}

// scan scores the unit against every probe through the batch streaming
// kernel (panels: the batch's packed probe panels), offering
// threshold-passers to the per-probe rankers. outs (len(zps) slice
// headers) and buf are the run's scratch: buf is grown to hold this
// unit's stripe for every probe and returned for the next unit.
func (u Unit) scan(zps [][]float64, panels []float64, rankers []Ranker, outs [][]float64, buf []float64, skip []bool) []float64 {
	g := u.G
	bk := g.Blocked()
	inv := 1 / float64(g.features)
	stripe := min(scanStripe, u.Hi-u.Lo)
	if len(buf) < len(zps)*stripe {
		buf = make([]float64, len(zps)*stripe)
	}
	for p := range outs {
		outs[p] = buf[p*stripe : (p+1)*stripe]
	}
	for slo := u.Lo; slo < u.Hi; slo += stripe {
		shi := min(slo+stripe, u.Hi)
		bk.dotsBatch(slo, shi, zps, panels, outs)
		at := func(t int) (int, string, bool) {
			i := u.Base + slo + t
			return i, g.ids[slo+t], skip == nil || !skip[i]
		}
		for p := range rankers {
			rankers[p].OfferDots(outs[p][:shi-slo], inv, at)
		}
	}
	return buf
}
