package shard

import (
	"context"

	"brainprint/internal/gallery"
	"brainprint/internal/parallel"
)

// The scan planner. Earlier versions swept the GLOBAL index space
// [0, Len()) and re-derived (shard, local) coordinates per record —
// locate() bookkeeping on every step of the hot loop, and the reason
// BENCH_pr4.json showed the sharded store trailing the single-file
// gallery. The planner now splits each loaded shard into contiguous,
// lane-aligned scan units at construction time; workers claim whole
// units, each unit scans one shard's blocked layout with zero
// per-record bookkeeping, and per-unit bounded-heap rankings merge by
// tournament (gallery.RankMergeLists) under the (score desc, ID asc)
// strict total order. When only one worker would run, the sweep skips
// the fan-out entirely: units feed one shared ranker set in order, so
// the selection threshold carries across shard boundaries and scratch
// is allocated once — the same work a single-file scan does. Either
// way the result is the unique global top-k whatever the unit
// boundaries, worker count, or shard count — the determinism contract
// is unchanged, only the bookkeeping is gone.

// scanStripeRecords is the record width of one single-probe kernel
// pass within a unit (dot buffer: 8 KiB of float64).
const scanStripeRecords = 1024

// scanBatchRecords is the record width of one batched kernel pass: the
// per-probe dot buffers of a whole probe batch stay cache-resident
// alongside the streamed records.
const scanBatchRecords = 256

// scanUnit is one contiguous, lane-aligned range [lo, hi) of shard
// si's local index space — the unit of work a scan worker claims.
type scanUnit struct {
	si     int
	lo, hi int
}

// planUnits splits every loaded shard into scan units of roughly
// 256k multiply-adds each, rounded to whole lane blocks so a unit
// never splits a blocked-layout lane group. The plan depends only on
// the shard record counts and dimensionality, never on the query or
// worker count.
func planUnits(galleries []*gallery.Gallery, features int) []scanUnit {
	grain := 1 + (1<<18)/features
	grain = (grain + gallery.ScanLanes - 1) / gallery.ScanLanes * gallery.ScanLanes
	var units []scanUnit
	for si, g := range galleries {
		if g == nil {
			continue
		}
		for lo := 0; lo < g.Len(); lo += grain {
			units = append(units, scanUnit{si: si, lo: lo, hi: min(lo+grain, g.Len())})
		}
	}
	return units
}

// TopKZMasked ranks the top k subjects for a probe that is ALREADY in
// gallery space and z-scored, excluding every global index gi with
// skip[gi] true. skip must be nil (no exclusions) or have length
// Len(). It is the scan behind TopKCtx, exported for the live engine,
// which scans its immutable base store through the blocked kernels
// while masking tombstoned records. With an index loaded and nprobe > 0
// only the probed cells are scanned (ann.go); otherwise every record is.
// k is the caller's responsibility to clamp (at most the number of
// unmasked records).
func (s *Store) TopKZMasked(ctx context.Context, zp []float64, k, parallelism int, skip []bool) ([]gallery.Candidate, error) {
	if s.ann != nil && s.nprobe > 0 {
		return s.topKANN(ctx, zp, k, parallelism, skip)
	}
	return s.topKExact(ctx, zp, k, parallelism, skip)
}

// QueryAllZMasked is TopKZMasked over a batch of z-scored gallery-space
// probes, one ranked list per probe. The exact sweep scans each unit
// once for the whole batch through the probe-tiled kernels (one pass
// over the records per probe pair instead of one pass per probe).
func (s *Store) QueryAllZMasked(ctx context.Context, zcols [][]float64, k, parallelism int, skip []bool) ([][]gallery.Candidate, error) {
	if s.ann != nil && s.nprobe > 0 {
		return s.queryAllANN(ctx, zcols, k, parallelism, skip)
	}
	return s.queryAllExact(ctx, zcols, k, parallelism, skip)
}

// serialScan reports whether the sweep should bypass the worker
// fan-out: with one worker the per-unit partial rankings and the
// tournament merge buy nothing, while a shared ranker set carries the
// selection threshold across units.
func serialScan(parallelism int) bool {
	return parallel.Workers(parallelism) <= 1
}

// forUnits runs fn over every scan unit (one unit per chunk, workers
// claim units dynamically) and returns the per-unit results in unit
// order, or the context error.
func forUnits[T any](ctx context.Context, s *Store, parallelism int, fn func(u scanUnit) T) ([]T, error) {
	partials := make([]T, len(s.units))
	err := parallel.ForCtx(ctx, parallelism, len(s.units), 1, func(ulo, uhi int) error {
		for u := ulo; u < uhi; u++ {
			partials[u] = fn(s.units[u])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return partials, nil
}

// newRankers returns n independent bounded rankers of capacity k under
// the subject-ID tiebreak order, as values in one allocation.
func newRankers(n, k int) []gallery.Ranker {
	rs := make([]gallery.Ranker, n)
	for i := range rs {
		rs[i] = *gallery.NewRanker(k, gallery.BetterByID)
	}
	return rs
}

// rankedAll finalizes a ranker set into one ranked list per ranker.
func rankedAll(rs []gallery.Ranker) [][]gallery.Candidate {
	out := make([][]gallery.Candidate, len(rs))
	for i := range rs {
		out[i] = rs[i].Ranked()
	}
	return out
}

// topKExact is the full sweep: every record is scored through
// the blocked 4-lane kernel with the identical linalg.Dot(fp, zp)/F
// expression (bit for bit) the single-file gallery and
// match.SimilarityMatrix use, selected by bounded heap — one shared
// heap in the serial path, per-unit heaps merged by tournament under
// workers.
func (s *Store) topKExact(ctx context.Context, zp []float64, k, parallelism int, skip []bool) ([]gallery.Candidate, error) {
	inv := 1 / float64(s.features)
	if serialScan(parallelism) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := gallery.NewRanker(k, gallery.BetterByID)
		dots := make([]float64, scanStripeRecords)
		for _, u := range s.units {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s.scanUnitExactInto(u, zp, inv, r, dots, skip)
		}
		return r.Ranked(), nil
	}
	partials, err := forUnits(ctx, s, parallelism, func(u scanUnit) []gallery.Candidate {
		r := gallery.NewRanker(k, gallery.BetterByID)
		s.scanUnitExactInto(u, zp, inv, r, make([]float64, scanStripeRecords), skip)
		return r.Ranked()
	})
	if err != nil {
		return nil, err
	}
	return gallery.RankMergeLists(partials, k, gallery.BetterByID), nil
}

// scanUnitExactInto scores one unit against one probe, offering every
// threshold-passing record to r. dots is caller scratch of at least
// scanStripeRecords float64s; passing the same r and dots across units
// (the serial path) carries the selection threshold from unit to unit,
// so later units reject almost every record in O(1). Subject IDs are
// materialized only for candidates that pass the score threshold,
// keeping string bookkeeping off the hot loop.
func (s *Store) scanUnitExactInto(u scanUnit, zp []float64, inv float64, r *gallery.Ranker, dots []float64, skip []bool) {
	g := s.galleries[u.si]
	bk := g.Blocked()
	base := s.bases[u.si]
	for slo := u.lo; slo < u.hi; slo += scanStripeRecords {
		shi := min(slo+scanStripeRecords, u.hi)
		d := dots[:lanesUp(shi-slo)]
		clear(d)
		bk.DotsF64(slo, shi, zp, d)
		thr, full := r.Threshold()
		for i := slo; i < shi; i++ {
			if skip != nil && skip[base+i] {
				continue
			}
			sc := d[i-slo] * inv
			if full && sc < thr.Score {
				continue
			}
			c := gallery.Candidate{Index: base + i, ID: g.ID(i), Score: sc}
			if full && !gallery.BetterByID(c, thr) {
				continue
			}
			r.Offer(c)
			thr, full = r.Threshold()
		}
	}
}

// queryAllExact is the batched full sweep: each unit streams
// once through the probe-tiled batch kernel for every probe. Serial,
// the whole sweep shares one ranker per probe and one dot buffer;
// under workers, per-probe unit rankings merge by tournament.
func (s *Store) queryAllExact(ctx context.Context, zcols [][]float64, k, parallelism int, skip []bool) ([][]gallery.Candidate, error) {
	inv := 1 / float64(s.features)
	if serialScan(parallelism) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rankers := newRankers(len(zcols), k)
		outs := make([][]float64, len(zcols))
		buf := make([]float64, len(zcols)*scanBatchRecords)
		for _, u := range s.units {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s.scanUnitExactBatchInto(u, zcols, inv, rankers, outs, buf, skip)
		}
		return rankedAll(rankers), nil
	}
	partials, err := forUnits(ctx, s, parallelism, func(u scanUnit) [][]gallery.Candidate {
		rankers := newRankers(len(zcols), k)
		outs := make([][]float64, len(zcols))
		buf := make([]float64, len(zcols)*min(scanBatchRecords, lanesUp(u.hi-u.lo)))
		s.scanUnitExactBatchInto(u, zcols, inv, rankers, outs, buf, skip)
		return rankedAll(rankers)
	})
	if err != nil {
		return nil, err
	}
	return mergeBatch(partials, len(zcols), k), nil
}

// scanUnitExactBatchInto scores one unit against every probe, offering
// threshold-passers to the per-probe rankers. outs (len(zps) slice
// headers) and buf (len(zps)*scanBatchRecords float64s, or enough for
// this unit's stripe) are caller scratch, reusable across units.
func (s *Store) scanUnitExactBatchInto(u scanUnit, zps [][]float64, inv float64, rankers []gallery.Ranker, outs [][]float64, buf []float64, skip []bool) {
	g := s.galleries[u.si]
	bk := g.Blocked()
	base := s.bases[u.si]
	stripe := min(scanBatchRecords, lanesUp(u.hi-u.lo))
	for p := range outs {
		outs[p] = buf[p*stripe : (p+1)*stripe]
	}
	for slo := u.lo; slo < u.hi; slo += stripe {
		shi := min(slo+stripe, u.hi)
		nd := lanesUp(shi - slo)
		for p := range outs {
			clear(outs[p][:nd])
		}
		bk.DotsF64Batch(slo, shi, zps, outs)
		for p := range rankers {
			r := &rankers[p]
			d := outs[p]
			thr, full := r.Threshold()
			for i := slo; i < shi; i++ {
				if skip != nil && skip[base+i] {
					continue
				}
				sc := d[i-slo] * inv
				if full && sc < thr.Score {
					continue
				}
				c := gallery.Candidate{Index: base + i, ID: g.ID(i), Score: sc}
				if full && !gallery.BetterByID(c, thr) {
					continue
				}
				r.Offer(c)
				thr, full = r.Threshold()
			}
		}
	}
}

// mergeBatch tournament-merges per-unit, per-probe rankings into one
// bounded list per probe.
func mergeBatch(partials [][][]gallery.Candidate, probes, k int) [][]gallery.Candidate {
	out := make([][]gallery.Candidate, probes)
	lists := make([][]gallery.Candidate, len(partials))
	for p := 0; p < probes; p++ {
		for u := range partials {
			lists[u] = partials[u][p]
		}
		out[p] = gallery.RankMergeLists(lists, k, gallery.BetterByID)
	}
	return out
}

// lanesUp rounds a record count up to whole lane blocks.
func lanesUp(n int) int {
	return (n + gallery.ScanLanes - 1) / gallery.ScanLanes * gallery.ScanLanes
}
