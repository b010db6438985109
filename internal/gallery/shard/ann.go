package shard

import (
	"context"
	"errors"
	"fmt"
	"os"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/ivf"
)

// The IVF scan path. With an index loaded and nprobe > 0, a query ranks
// the index cells against the probe and scans only the posting lists of
// the best nprobe cells — sub-linear candidate selection — while scoring
// stays exactly what the full sweep computes: linalg.Dot's chain over
// the stored per-record fingerprints, gathered eight records at a time
// (Blocked.DotsAt). A batch is scanned cell-major, so a cell several
// probes chose is read once for all of them. The index therefore changes
// WHICH records can be returned (recall, measured by the CI gate), never
// the score of any record that is returned. Because each shard's posting
// lists partition its local index space, nprobe ≥ Cells() scans every
// record exactly once and the result is bit-identical to the exact sweep
// — the equivalence matrix pins this at several shard counts and
// parallelism settings.

// ErrNoANNIndex is returned by SetANNProbe when enabling the ANN scan
// on a store without a loaded index.
var ErrNoANNIndex = errors.New("shard: no ANN index loaded (build one with BuildANN or the gallery index subcommand)")

// BuildANN trains an IVF coarse index over the store's records:
// k-means centroids (deterministically seeded, at most 512 cells by
// default) and one posting list per (shard, cell). cells 0 picks
// ivf.DefaultCells over the record count; the build is bit-identical
// at any parallelism. A partially loaded store refuses — an index
// trained over surviving shards would go stale the moment the faulted
// shards heal. Persist with SaveANN; not safe to call concurrently
// with queries.
func (s *Store) BuildANN(ctx context.Context, cells int, seed int64, parallelism int) error {
	x, err := s.TrainANN(ctx, cells, seed, parallelism)
	if err != nil {
		return err
	}
	s.ann = x
	return nil
}

// TrainANN is BuildANN without the attach: it trains and returns the
// index, leaving the store untouched — for callers (the live engine)
// that must train off their lock while queries flow, then attach in a
// short locked window. Training only reads the store, so it is safe
// concurrent with queries.
func (s *Store) TrainANN(ctx context.Context, cells int, seed int64, parallelism int) (*ivf.Index, error) {
	if len(s.faults) > 0 {
		return nil, fmt.Errorf("shard: refusing to index a partially loaded store (%d faulted shards)", len(s.faults))
	}
	if s.total == 0 {
		return nil, fmt.Errorf("shard: refusing to index an empty store")
	}
	counts := make([]int, len(s.galleries))
	for i, g := range s.galleries {
		counts[i] = g.Len()
	}
	return ivf.Build(ctx, ivf.Config{Cells: cells, Seed: seed, Parallelism: parallelism},
		s.features, counts,
		func(si, li int) []float64 { return s.galleries[si].Fingerprint(li) })
}

// AttachANN installs a trained index after verifying it describes
// exactly this store (same geometry and per-shard record counts). Not
// safe to call concurrently with queries.
func (s *Store) AttachANN(x *ivf.Index) error {
	if !s.annMatches(x) {
		return fmt.Errorf("shard: index geometry does not match the store")
	}
	s.ann = x
	return nil
}

// SaveANN persists the loaded index as the sidecar of the given
// database path (gallery file, shard manifest, or live generation
// manifest): "<dbPath>.ivf", written atomically. Open of the same
// database path picks it up automatically.
func (s *Store) SaveANN(dbPath string) error {
	if s.ann == nil {
		return ErrNoANNIndex
	}
	return s.ann.WriteFile(ivf.SidecarPath(dbPath))
}

// ANNIndex returns the loaded IVF index, or nil. The caller must not
// mutate it.
func (s *Store) ANNIndex() *ivf.Index { return s.ann }

// HasANNIndex reports whether an IVF index is loaded.
func (s *Store) HasANNIndex() bool { return s.ann != nil }

// ANNProbe reports the active cell fan-out (0 = exact scan).
func (s *Store) ANNProbe() int { return s.nprobe }

// SetANNProbe selects how many index cells a query scans. 0 disables
// the index and returns to the exact sweep; a positive nprobe requires
// a loaded index (ErrNoANNIndex otherwise) and is clamped to the cell
// count at query time — nprobe at or above Cells() probes every cell
// and is bit-identical to exact. Not safe to call concurrently with
// queries.
func (s *Store) SetANNProbe(nprobe int) error {
	if nprobe < 0 {
		return fmt.Errorf("shard: nprobe %d must be non-negative", nprobe)
	}
	if nprobe > 0 && s.ann == nil {
		return ErrNoANNIndex
	}
	s.nprobe = nprobe
	return nil
}

// loadANN loads the database's index sidecar if one exists. A missing
// sidecar is simply no index; a sidecar that fails to decode is a
// loud error (corruption must not be masked); a sidecar that decodes
// but disagrees with the store's geometry (features, shard count, or
// any shard's record count) is stale — it indexes some other state of
// the database — and is ignored so the store serves exactly.
func (s *Store) loadANN(dbPath string) error {
	path := ivf.SidecarPath(dbPath)
	if _, err := os.Stat(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	x, err := ivf.ReadFile(path)
	if err != nil {
		return fmt.Errorf("shard: loading ANN sidecar %s: %w", path, err)
	}
	if !s.annMatches(x) {
		return nil
	}
	s.ann = x
	return nil
}

// annMatches reports whether a decoded index describes exactly this
// store: same dimensionality, same shard count, same per-shard record
// counts, no faulted shards.
func (s *Store) annMatches(x *ivf.Index) bool {
	if len(s.faults) > 0 || x.Features() != s.features || x.Shards() != len(s.galleries) {
		return false
	}
	for si, g := range s.galleries {
		if g == nil || x.ShardCount(si) != g.Len() {
			return false
		}
	}
	return true
}

// queryAllANN is the IVF sweep for a batch of z-scored probes, run
// cell-major: the probes' cell rankings are inverted into one cell →
// probes map, and the selection driver every scan shares runs over
// (shard, cell) units with one ranker per probe. A probed unit's
// posting list is gathered once per probe that chose the cell, so the
// later probes find its rows in cache. Each probe still scores exactly
// its own cells' records with linalg.Dot's chain, so under the strict
// total order its answer is the per-probe sweep's. A batch of one
// takes the same path, its workers splitting cells.
func (s *Store) queryAllANN(ctx context.Context, zcols [][]float64, k, parallelism int, skip []bool) ([][]gallery.Candidate, error) {
	cells := s.ann.Cells()
	ranked := make([][]int, len(zcols))
	at := make([]int, cells+1) // cell c's probes are who[at[c]:at[c+1]]
	for j, zp := range zcols {
		ranked[j] = s.ann.RankCells(zp, s.nprobe)
		for _, c := range ranked[j] {
			at[c+1]++
		}
	}
	for c := range cells {
		at[c+1] += at[c]
	}
	who := make([]int32, at[cells])
	for j, cs := range ranked {
		for _, c := range cs {
			who[at[c]] = int32(j)
			at[c]++
		}
	}
	copy(at[1:], at[:cells]) // each at[c] advanced to its end
	at[0] = 0
	inv := 1 / float64(s.features)
	return gallery.SelectRuns(ctx, len(s.galleries)*cells, len(zcols), k, parallelism,
		func(lo, hi int, rankers []gallery.Ranker) error {
			// Units are shard-major: one view per shard the run crosses.
			var bk *gallery.Blocked
			cur := -1
			var kept []uint32
			var dots []float64
			for u := lo; u < hi; u++ {
				si, c := u/cells, u%cells
				if at[c] == at[c+1] {
					continue // no probe chose this cell
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				g, base := s.galleries[si], s.bases[si]
				if si != cur {
					bk, cur = g.Blocked(), si
				}
				idx := s.ann.Postings(si, c)
				if skip != nil {
					kept = kept[:0]
					for _, li := range idx {
						if !skip[base+int(li)] {
							kept = append(kept, li)
						}
					}
					idx = kept
				}
				if len(dots) < len(idx) {
					dots = make([]float64, len(idx))
				}
				name := func(t int) (int, string, bool) {
					li := int(idx[t])
					return base + li, g.ID(li), true
				}
				for _, j := range who[at[c]:at[c+1]] {
					bk.DotsAt(idx, zcols[j], dots)
					rankers[j].OfferDots(dots[:len(idx)], inv, name)
				}
			}
			return nil
		})
}
