package shard

import (
	"context"
	"errors"
	"fmt"
	"os"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/ivf"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
)

// The IVF scan path. With an index loaded and nprobe > 0, a query
// ranks the index cells against the probe and scans only the posting
// lists of the best nprobe cells — sub-linear candidate selection —
// while scoring stays exactly what the full sweep computes:
// linalg.Dot over the contiguous per-record fingerprints. The index
// therefore changes WHICH records can be returned (recall, measured by
// the CI gate), never the score of any record that is returned. Because
// each shard's posting lists partition its local index space,
// nprobe ≥ Cells() scans every record exactly once and the result is
// bit-identical to the exact sweep — the equivalence matrix pins this at
// several shard counts and parallelism settings.

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

// HasANNIndex reports whether an IVF index is loaded
// (gallery.ANNSetter).
func (s *Store) HasANNIndex() bool { return s.ann != nil }

// ANNProbe reports the active cell fan-out (0 = exact scan).
func (s *Store) ANNProbe() int { return s.nprobe }

// SetANNProbe selects how many index cells a query scans
// (gallery.ANNSetter). 0 disables the index and returns to the exact
// sweep; a positive nprobe requires a loaded index (ErrNoANNIndex
// otherwise) and is clamped to the cell count at query time — nprobe
// at or above Cells() probes every cell and is bit-identical to
// exact. Not safe to call concurrently with queries.
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

// topKANN is the IVF sweep for one z-scored probe: rank the cells, then
// scan the probed posting lists shard by shard through the selection
// driver every scan shares (units = shards), so a run's ranker carries
// the selection threshold across its shards and per-run rankings merge
// by tournament.
func (s *Store) topKANN(ctx context.Context, zp []float64, k, parallelism int, skip []bool) ([]gallery.Candidate, error) {
	cells := s.ann.RankCells(zp, s.nprobe)
	inv := 1 / float64(s.features)
	lists, err := gallery.SelectRuns(ctx, len(s.galleries), 1, k, parallelism, gallery.BetterByID,
		func(lo, hi int, rankers []gallery.Ranker) error {
			for si := lo; si < hi; si++ {
				s.scanANNShard(si, cells, zp, inv, &rankers[0], skip)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// queryAllANN is the IVF batch path: probes fan out one per worker
// with a serial inner sweep — posting-list scans are too sparse for
// the record-striped batch kernels to pay off. A batch of one has no
// probes to fan out, so its workers go to the shards instead.
func (s *Store) queryAllANN(ctx context.Context, zcols [][]float64, k, parallelism int, skip []bool) ([][]gallery.Candidate, error) {
	inner := 1
	if len(zcols) == 1 {
		inner = parallelism
	}
	out := make([][]gallery.Candidate, len(zcols))
	err := parallel.ForCtx(ctx, parallelism, len(zcols), 1, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			top, err := s.topKANN(ctx, zcols[j], k, inner, skip)
			if err != nil {
				return err
			}
			out[j] = top
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanANNShard scans one shard's probed posting lists, scoring
// candidates against the same stored rows the exact sweep streams, with
// the exact expression, so these scores are final. A posting list
// selects a scattered subset of records, so the access pattern is a
// gather rather than a stream: candidates go eight at a time into
// linalg.Dot8 so the dependency chains (and the eight records'
// cache-miss streams) overlap; each score is still bit-identical to a
// lone linalg.Dot, and offer order is exactly the posting order, so
// results match the unbatched loop bit for bit.
func (s *Store) scanANNShard(si int, cells []int, zp []float64, inv float64, r *gallery.Ranker, skip []bool) {
	g := s.galleries[si]
	if g == nil {
		return
	}
	base := s.bases[si]
	thr, full := r.Threshold()
	var idx [8]int
	var dots [8]float64
	n := 0
	flush := func() {
		for t := 0; t < n; t++ {
			i, sc := idx[t], dots[t]*inv
			if full && sc < thr.Score {
				continue
			}
			cand := gallery.Candidate{Index: base + i, ID: g.ID(i), Score: sc}
			if full && !gallery.BetterByID(cand, thr) {
				continue
			}
			r.Offer(cand)
			thr, full = r.Threshold()
		}
		n = 0
	}
	for _, c := range cells {
		for _, li := range s.ann.Postings(si, c) {
			i := int(li)
			if skip != nil && skip[base+i] {
				continue
			}
			idx[n] = i
			n++
			if n < len(idx) {
				continue
			}
			dots[0], dots[1], dots[2], dots[3], dots[4], dots[5], dots[6], dots[7] = linalg.Dot8(
				g.Fingerprint(idx[0]), g.Fingerprint(idx[1]),
				g.Fingerprint(idx[2]), g.Fingerprint(idx[3]),
				g.Fingerprint(idx[4]), g.Fingerprint(idx[5]),
				g.Fingerprint(idx[6]), g.Fingerprint(idx[7]), zp)
			flush()
		}
	}
	for t := 0; t < n; t++ {
		dots[t] = linalg.Dot(g.Fingerprint(idx[t]), zp)
	}
	flush()
}
