package shard

import (
	"context"

	"brainprint/internal/gallery"
)

// The scan plan and the exact/IVF dispatch. Each loaded shard is cut
// into contiguous scan units at construction time
// (gallery.AppendUnits); the exact sweep hands that fixed plan to the
// driver every engine shares (gallery.ScanUnits: units → runs →
// tournament merge), which streams each unit's rows straight from its
// shard gallery with zero per-record bookkeeping and ranks under the
// (score desc, ID asc) strict total order. The result is the unique
// global top-k whatever the unit boundaries, worker count, or shard
// count.

// planUnits lays the scan units of every loaded shard end to end in
// global index order. The plan depends only on the shard record counts
// and dimensionality, never on the query or worker count.
func planUnits(galleries []*gallery.Gallery, bases []int) []gallery.Unit {
	var units []gallery.Unit
	for si, g := range galleries {
		if g != nil {
			units = g.AppendUnits(units, bases[si])
		}
	}
	return units
}

// QueryAllZMasked ranks, for each probe of a batch that is ALREADY in
// gallery space and z-scored, the top k subjects, excluding every
// global index gi with skip[gi] true. skip must be nil (no exclusions)
// or have length Len(). It is the scan behind TopKCtx (a batch of one)
// and QueryAllCtx, exported for the live engine, which scans its
// immutable base store through the streaming kernels while masking
// tombstoned records. With an index loaded and nprobe > 0 only the
// probed cells are scanned (ann.go); otherwise every unit streams once
// for the whole batch through the probe-paired kernels. k is the
// caller's responsibility to clamp (at most the number of unmasked
// records).
func (s *Store) QueryAllZMasked(ctx context.Context, zcols [][]float64, k, parallelism int, skip []bool) ([][]gallery.Candidate, error) {
	if s.ann != nil && s.nprobe > 0 {
		return s.queryAllANN(ctx, zcols, k, parallelism, skip)
	}
	return gallery.ScanUnits(ctx, s.units, zcols, k, parallelism, skip)
}
