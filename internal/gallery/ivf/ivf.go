// Package ivf is the inverted-file (IVF) coarse index behind the
// sharded gallery's approximate scan: k-means centroids trained over
// the z-scored fingerprints partition the records into cells, each
// shard keeps one posting list of local record indices per cell, and a
// query scans only the nprobe cells whose centroids score best against
// the probe — sub-linear candidate selection at population scale,
// where every exact engine is a full linear sweep.
//
// Geometry. Every stored fingerprint is z-scored, so all records lie
// on the radius-√F sphere (Σx² = F exactly). On that sphere the
// Euclidean k-means assignment argmin‖v−c‖² is equivalent to
// argmax(v·c − ‖c‖²/2): the ‖v‖² term is constant across cells. Cell
// assignment and cell probing therefore both rank by the same
// dot-product expression the scan kernels compute, and the cells an
// index probes are exactly the cells whose members score highest on
// average — consistent with the engine's correlation ranking.
//
// Determinism. Training is bit-reproducible at any parallelism:
// initialization draws from a splitmix64-derived seed
// (parallel.DeriveSeed), Lloyd iterations accumulate per-cell sums via
// parallel.ReduceCtx with a fixed grain (the fold order is chunk
// order, independent of the worker count), and assignment ties break
// toward the lower cell id. Two builds from the same records and seed
// produce identical centroids and identical posting lists.
//
// Exactness. The index only restricts WHICH records are scored; it
// never changes HOW they are scored. The shard store's IVF scan scores
// each candidate with the same float64 linalg.Dot expression as the
// full sweep, so every returned score is bit-identical to the dense
// path — the approximation is confined to the candidate set, and the
// recall gate in CI measures exactly that (see DESIGN.md §9).
package ivf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"brainprint/internal/gallery"
	"brainprint/internal/parallel"
)

// DefaultNProbe is the cell fan-out the CLI/serve -ann flag and the
// attacker session's WithANN(0) resolve to: wide enough that the CI
// recall gate holds recall@10 ≥ 0.99 on the clustered 10k cohort,
// narrow enough to keep the 1M scan ≥5× faster than exact.
const DefaultNProbe = 16

// Training geometry bounds. Cells are clamped so centroid training
// and the full assignment pass stay a small fraction of an exact scan
// even at 1M records; the sample cap bounds Lloyd's per-iteration cost
// independently of the gallery size.
const (
	minCells        = 4
	maxCellsDefault = 512
	samplePerCell   = 48
	maxLloydIters   = 12
	trainGrain      = 256  // samples per ReduceCtx chunk (fixed ⇒ deterministic)
	assignGrain     = 1024 // records per assignment chunk
)

// DefaultCells returns the trained cell count for n records when the
// caller does not choose one: ≈√n, clamped to [4, 512] (and to n).
func DefaultCells(n int) int {
	c := int(math.Ceil(math.Sqrt(float64(n))))
	c = max(c, minCells)
	c = min(c, maxCellsDefault)
	return min(c, n)
}

// Config tunes Build.
type Config struct {
	// Cells is the trained centroid count (0 = DefaultCells over the
	// total record count). At most one cell per record.
	Cells int
	// Seed is the deterministic training seed; builds with equal seeds
	// over equal records are bit-identical.
	Seed int64
	// Parallelism bounds the training workers (0 = all cores,
	// 1 = serial). The result is identical at any setting.
	Parallelism int
}

// Index is a trained IVF coarse index over one sharded gallery: the
// centroids, their cached half squared norms, and one posting list per
// (shard, cell) holding ascending local record indices. An Index is
// immutable after Build/Decode and safe for concurrent probing.
type Index struct {
	features  int
	cells     int
	seed      int64
	centroids []float64 // cells × features, row-major
	halfNorm  []float64 // ‖c‖²/2 per cell, derived
	counts    []int     // records per shard, as trained
	postings  [][][]uint32
	bk        *gallery.Blocked // streaming-kernel view over centroids (no copy), derived
}

// Features returns the fingerprint dimensionality the index was
// trained over.
func (x *Index) Features() int { return x.features }

// Cells returns the trained centroid count.
func (x *Index) Cells() int { return x.cells }

// Seed returns the deterministic training seed, persisted so a
// rebuild (e.g. at live-engine compaction) can reuse it.
func (x *Index) Seed() int64 { return x.seed }

// Shards returns the shard count the index partitions.
func (x *Index) Shards() int { return len(x.counts) }

// ShardCount returns the record count of shard si as trained — the
// staleness check an opener compares against the store it loaded.
func (x *Index) ShardCount(si int) int { return x.counts[si] }

// Postings returns shard si's ascending local record indices assigned
// to cell c. The caller must not mutate the result.
func (x *Index) Postings(si, c int) []uint32 { return x.postings[si][c] }

// Build trains an index over the records of a sharded gallery: counts
// holds each shard's record count and fp returns the stored z-scored
// fingerprint at (shard, local index). Training samples min(total,
// cells·48) records, runs Lloyd iterations to convergence (at most
// 12), then assigns every record to its nearest cell in one full pass.
// Both phases score eight records per pass through the gallery's batch
// kernel (nearestCells), each score bit-identical to a lone
// linalg.Dot. The result depends only on the records, cfg.Cells, and
// cfg.Seed — never on cfg.Parallelism or the kernel body.
func Build(ctx context.Context, cfg Config, features int, counts []int, fp func(si, li int) []float64) (*Index, error) {
	if features <= 0 {
		return nil, fmt.Errorf("ivf: features %d must be positive", features)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("ivf: no shards")
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("ivf: negative shard record count %d", c)
		}
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("ivf: no records to index")
	}
	cells := cfg.Cells
	if cells == 0 {
		cells = DefaultCells(total)
	}
	if cells < 1 || cells > maxCells {
		return nil, fmt.Errorf("ivf: cell count %d out of range [1, %d]", cells, maxCells)
	}
	if cells > total {
		return nil, fmt.Errorf("ivf: cell count %d exceeds record count %d", cells, total)
	}

	samples := sampleRecords(cfg.Seed, features, counts, cells, fp)
	centroids, err := lloyd(ctx, cfg, features, cells, samples)
	if err != nil {
		return nil, err
	}
	x := &Index{
		features:  features,
		cells:     cells,
		seed:      cfg.Seed,
		centroids: centroids,
		counts:    append([]int(nil), counts...),
	}
	x.derive()
	if err := x.assignAll(ctx, cfg.Parallelism, fp); err != nil {
		return nil, err
	}
	return x, nil
}

// derive rebuilds the cached half squared norms and the kernel view
// from the centroid matrix (after Build or Decode). Centroids score
// through the same streaming kernel as gallery records, read in place.
func (x *Index) derive() {
	x.bk = gallery.NewBlocked(x.features, x.centroids)
	x.halfNorm = halfNorms(x.features, x.centroids)
}

// halfNorms returns ‖c‖²/2 for every row of a flat centroid matrix.
func halfNorms(features int, centroids []float64) []float64 {
	half := make([]float64, len(centroids)/features)
	for c := range half {
		var n2 float64
		for _, v := range centroids[c*features : (c+1)*features] {
			n2 += v * v
		}
		half[c] = n2 / 2
	}
	return half
}

// sampleRecords draws the deterministic training sample: all records
// when the gallery is small, otherwise cells·48 global indices chosen
// by a seeded permutation, materialized as one flat matrix.
func sampleRecords(seed int64, features int, counts []int, cells int, fp func(si, li int) []float64) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	cap_ := min(total, cells*samplePerCell)
	pick := make([]int, cap_)
	if cap_ == total {
		for i := range pick {
			pick[i] = i
		}
	} else {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, 0x1BF5)))
		copy(pick, rng.Perm(total)[:cap_])
		sort.Ints(pick)
	}
	out := make([]float64, cap_*features)
	gi, si, li := 0, 0, 0
	for i, p := range pick {
		for p >= gi+counts[si]-li {
			gi += counts[si] - li
			si, li = si+1, 0
		}
		li += p - gi
		gi = p
		copy(out[i*features:(i+1)*features], fp(si, li))
	}
	return out
}

// lloyd runs deterministic k-means over the sample: seeded-permutation
// initialization, then at most maxLloydIters assignment/update rounds,
// stopping early once no sample changes cell. Each round parallelizes
// over samples with a fixed grain: a chunk scores all its samples
// first, then adds them to its per-cell sums in sample order, and the
// chunks' sums fold in chunk order, so centroids are bit-identical at
// any worker count.
func lloyd(ctx context.Context, cfg Config, features, cells int, samples []float64) ([]float64, error) {
	n := len(samples) / features
	sample := func(i int) []float64 { return samples[i*features : (i+1)*features] }

	rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, 0x1BF6)))
	centroids := make([]float64, cells*features)
	for c, p := range rng.Perm(n)[:cells] {
		copy(centroids[c*features:(c+1)*features], sample(p))
	}

	type partial struct {
		sum   []float64
		count []int64
		moved int
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	bk := gallery.NewBlocked(features, centroids) // a view: sees every update below
	for iter := 0; iter < maxLloydIters; iter++ {
		half := halfNorms(features, centroids)
		acc, err := parallel.ReduceCtx(ctx, cfg.Parallelism, n, trainGrain, partial{},
			func(lo, hi int) partial {
				p := partial{sum: make([]float64, cells*features), count: make([]int64, cells)}
				nearest := make([]int32, hi-lo)
				nearestCells(bk, half, sample, lo, hi, nearest)
				for i, c := range nearest { // record order fixes the sums' fold order
					if assign[lo+i] != c {
						p.moved++
					}
					assign[lo+i] = c
					s := p.sum[int(c)*features : (int(c)+1)*features]
					for j, x := range sample(lo + i) {
						s[j] += x
					}
					p.count[c]++
				}
				return p
			},
			func(acc, p partial) partial {
				if acc.sum == nil {
					return p
				}
				for i, v := range p.sum {
					acc.sum[i] += v
				}
				for i, v := range p.count {
					acc.count[i] += v
				}
				acc.moved += p.moved
				return acc
			},
		)
		if err != nil {
			return nil, err
		}
		for c := 0; c < cells; c++ {
			if acc.count[c] == 0 {
				continue // empty cell keeps its centroid
			}
			inv := 1 / float64(acc.count[c])
			dst := centroids[c*features : (c+1)*features]
			src := acc.sum[c*features : (c+1)*features]
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
		if acc.moved == 0 {
			break
		}
	}
	return centroids, nil
}

// assignAll runs the full assignment pass: every record of every shard
// scores against all centroids, eight records per kernel pass
// (nearestCells), and joins its nearest cell's posting list (ascending
// local order by construction).
func (x *Index) assignAll(ctx context.Context, parallelism int, fp func(si, li int) []float64) error {
	x.postings = make([][][]uint32, len(x.counts))
	for si, count := range x.counts {
		cellOf := make([]int32, count)
		rec := func(li int) []float64 { return fp(si, li) }
		err := parallel.ForCtx(ctx, parallelism, count, assignGrain, func(lo, hi int) error {
			nearestCells(x.bk, x.halfNorm, rec, lo, hi, cellOf[lo:hi])
			return nil
		})
		if err != nil {
			return err
		}
		lists := make([][]uint32, x.cells)
		sizes := make([]int, x.cells)
		for _, c := range cellOf {
			sizes[c]++
		}
		for c := range lists {
			lists[c] = make([]uint32, 0, sizes[c])
		}
		for li, c := range cellOf {
			lists[c] = append(lists[c], uint32(li))
		}
		x.postings[si] = lists
	}
	return nil
}

// cellBatch is how many records nearestCells scores per kernel call:
// one probe panel, so each centroid row loaded meets eight records.
const cellBatch = 8

// nearestCells writes to out[i-lo], for every record rec(i) with i in
// [lo, hi), the cell whose centroid maximizes v·c − ‖c‖²/2, ties toward
// the lower cell id. Records are scored cellBatch at a time through
// DotsF64Batch, the centroids as rows and the records as the probe
// panel; each score is bit-identical to linalg.Dot(c, v) on either
// kernel body, so every choice is the one a record-at-a-time pass makes.
func nearestCells(bk *gallery.Blocked, halfNorm []float64, rec func(i int) []float64, lo, hi int, out []int32) {
	cells := len(halfNorm)
	buf := make([]float64, cellBatch*cells)
	var vs, scores [cellBatch][]float64
	for r := range scores {
		scores[r] = buf[r*cells : (r+1)*cells]
	}
	for i := lo; i < hi; i += cellBatch {
		n := min(cellBatch, hi-i)
		for r := range n {
			vs[r] = rec(i + r)
		}
		bk.DotsF64Batch(0, cells, vs[:n], scores[:n])
		for r, s := range scores[:n] {
			best, bestScore := 0, s[0]-halfNorm[0]
			for c := 1; c < cells; c++ {
				if v := s[c] - halfNorm[c]; v > bestScore {
					best, bestScore = c, v
				}
			}
			out[i-lo+r] = int32(best)
		}
	}
}

// RankCells returns the ids of the nprobe cells whose centroids score
// best against the z-scored gallery-space probe, best first, ties
// toward the lower cell id. nprobe larger than the cell count is
// clamped; nprobe ≥ Cells() therefore probes every cell, and — because
// the posting lists partition each shard — the candidate set equals
// the full record set, making the IVF scan bit-identical to exact.
func (x *Index) RankCells(zp []float64, nprobe int) []int {
	nprobe = min(nprobe, x.cells)
	d := make([]float64, x.cells)
	x.bk.DotsF64(0, x.cells, zp, d)
	best := make([]int, 0, nprobe)
	for c := range d {
		d[c] -= x.halfNorm[c]
		if len(best) < nprobe {
			best = append(best, c)
		} else if nprobe == 0 || !(d[c] > d[best[nprobe-1]]) {
			continue // ties keep the lower id already held
		}
		// Insertion step: c displaces every strictly worse cell.
		j := len(best) - 1
		for ; j > 0 && d[best[j-1]] < d[c]; j-- {
			best[j] = best[j-1]
		}
		best[j] = c
	}
	return best
}

// validate checks the structural invariants a decoded index must hold:
// per shard, the posting lists form an exact partition of the local
// index space — every local index appears in exactly one cell, each
// list strictly ascending.
func (x *Index) validate() error {
	for si, lists := range x.postings {
		count := x.counts[si]
		if len(lists) != x.cells {
			return fmt.Errorf("%w: shard %d has %d posting lists, index has %d cells", ErrCorrupt, si, len(lists), x.cells)
		}
		seen := make([]bool, count)
		n := 0
		for c, list := range lists {
			prev := -1
			for _, li := range list {
				if int64(li) >= int64(count) {
					return fmt.Errorf("%w: shard %d cell %d posts record %d beyond count %d", ErrCorrupt, si, c, li, count)
				}
				if int(li) <= prev {
					return fmt.Errorf("%w: shard %d cell %d posting list not strictly ascending", ErrCorrupt, si, c)
				}
				if seen[li] {
					return fmt.Errorf("%w: shard %d record %d posted twice", ErrCorrupt, si, li)
				}
				seen[li] = true
				prev = int(li)
				n++
			}
		}
		if n != count {
			return fmt.Errorf("%w: shard %d posts %d records, expects %d", ErrCorrupt, si, n, count)
		}
	}
	return nil
}
