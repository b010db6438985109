package ivf

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"testing"

	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/stats"
)

// mixtureShards returns the fingerprint provider of a seeded mixture
// cohort: every record is one of centres random centres plus unit
// noise, z-scored across its features as every stored fingerprint is.
func mixtureShards(seed int64, features, centres int, counts []int) func(si, li int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	centre := make([]float64, centres*features)
	for i := range centre {
		centre[i] = rng.NormFloat64()
	}
	rows := make([][]float64, len(counts))
	for si, n := range counts {
		rows[si] = make([]float64, n*features)
		for li := 0; li < n; li++ {
			c := rng.Intn(centres)
			v := rows[si][li*features : (li+1)*features]
			for f := range v {
				v[f] = centre[c*features+f] + rng.NormFloat64()
			}
			stats.ZScore(v)
		}
	}
	return func(si, li int) []float64 { return rows[si][li*features : (li+1)*features] }
}

// oracleNearest is the record-at-a-time assignment Build made before it
// scored records in panels: one linalg.Dot per centroid, the argmax of
// v·c − ‖c‖²/2, ties toward the lower cell id.
func oracleNearest(features int, centroids, halfNorm, v []float64) int32 {
	best, bestScore := 0, linalg.Dot(centroids[:features], v)-halfNorm[0]
	for c := 1; c < len(halfNorm); c++ {
		if s := linalg.Dot(centroids[c*features:(c+1)*features], v) - halfNorm[c]; s > bestScore {
			best, bestScore = c, s
		}
	}
	return int32(best)
}

// oracleBuild is Build written serially around oracleNearest: the same
// sample and initial centroids, each Lloyd round's per-cell sums
// accumulated per trainGrain chunk in record order and folded in chunk
// order (as ReduceCtx folds them), then one assignment pass.
func oracleBuild(cfg Config, features int, counts []int, fp func(si, li int) []float64) ([]float64, [][][]uint32) {
	total := 0
	for _, n := range counts {
		total += n
	}
	cells := cfg.Cells
	if cells == 0 {
		cells = DefaultCells(total)
	}
	samples := sampleRecords(cfg.Seed, features, counts, cells, fp)
	n := len(samples) / features
	sample := func(i int) []float64 { return samples[i*features : (i+1)*features] }
	rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, 0x1BF6)))
	centroids := make([]float64, cells*features)
	for c, p := range rng.Perm(n)[:cells] {
		copy(centroids[c*features:], sample(p))
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < maxLloydIters; iter++ {
		half := halfNorms(features, centroids)
		var sum []float64
		count := make([]int64, cells)
		moved := 0
		for lo := 0; lo < n; lo += trainGrain {
			part := make([]float64, cells*features)
			for i := lo; i < min(lo+trainGrain, n); i++ {
				c := oracleNearest(features, centroids, half, sample(i))
				if assign[i] != c {
					moved++
				}
				assign[i] = c
				s := part[int(c)*features : (int(c)+1)*features]
				for j, x := range sample(i) {
					s[j] += x
				}
				count[c]++
			}
			if sum == nil {
				sum = part
				continue
			}
			for i, v := range part {
				sum[i] += v
			}
		}
		for c := 0; c < cells; c++ {
			if count[c] == 0 {
				continue
			}
			inv := 1 / float64(count[c])
			for j := c * features; j < (c+1)*features; j++ {
				centroids[j] = sum[j] * inv
			}
		}
		if moved == 0 {
			break
		}
	}
	half := halfNorms(features, centroids)
	postings := make([][][]uint32, len(counts))
	for si, count := range counts {
		postings[si] = make([][]uint32, cells)
		for li := 0; li < count; li++ {
			c := oracleNearest(features, centroids, half, fp(si, li))
			postings[si][c] = append(postings[si][c], uint32(li))
		}
	}
	return centroids, postings
}

// TestBuildMatchesScalarOracle pins that panel-scored training is
// bit-identical to the record-at-a-time scalar build on every kernel
// body. The cohorts leave a remainder at every level: odd feature
// counts (the kernel's feature loop), cell counts that are not
// multiples of four (its row tail), and shard sizes that are not
// multiples of eight (a partial panel closing every chunk; 57/457 and
// 42/242 leave 1 and 2 records, which the go bodies take). One record
// in four repeats its predecessor, so some initial centroids coincide
// and the lower-id tie rule decides real assignments.
func TestBuildMatchesScalarOracle(t *testing.T) {
	for _, tc := range []struct {
		features, cells int
		counts          []int
	}{
		{7, 9, []int{57, 1, 42}},
		{101, 9, []int{57, 1, 42}},
		{7, 317, []int{457, 1, 242}},
		{101, 317, []int{457, 1, 242}},
	} {
		t.Run(fmt.Sprintf("features=%d/cells=%d", tc.features, tc.cells), func(t *testing.T) {
			cfg := Config{Cells: tc.cells, Seed: 3}
			mix := mixtureShards(int64(tc.features), tc.features, 8, tc.counts)
			fp := func(si, li int) []float64 {
				if li%4 == 3 {
					li--
				}
				return mix(si, li)
			}
			wantC, wantP := oracleBuild(cfg, tc.features, tc.counts, fp)
			EachKernel(t, func(t *testing.T) {
				for _, par := range []int{1, 0} {
					cfg.Parallelism = par
					x, err := Build(context.Background(), cfg, tc.features, tc.counts, fp)
					if err != nil {
						t.Fatalf("Build: %v", err)
					}
					for i, w := range wantC {
						if math.Float64bits(x.centroids[i]) != math.Float64bits(w) {
							t.Fatalf("par=%d: centroid value %d = %v, oracle %v", par, i, x.centroids[i], w)
						}
					}
					for si := range tc.counts {
						for c := 0; c < tc.cells; c++ {
							got, want := x.Postings(si, c), wantP[si][c]
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("par=%d shard %d cell %d: postings %v, oracle %v", par, si, c, got, want)
							}
						}
					}
				}
			})
		})
	}
}

// TestBuildSidecarGolden pins the trained index byte for byte: the
// CRC-32 of Encode() for a seeded 20k-record, 100-feature, 64-centre
// mixture in four shards at default cells and seed 1, recorded from the
// record-at-a-time build that preceded panel scoring.
func TestBuildSidecarGolden(t *testing.T) {
	const want = 0x22db32d8
	counts := []int{5000, 5000, 5000, 5000}
	fp := mixtureShards(1, 100, 64, counts)
	EachKernel(t, func(t *testing.T) {
		x, err := Build(context.Background(), Config{Seed: 1}, 100, counts, fp)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if got := crc32.ChecksumIEEE(x.Encode()); got != want {
			t.Fatalf("sidecar CRC-32 = %#08x, want %#08x", got, want)
		}
	})
}

// TestRankCellsExactTies builds an index whose centroids repeat, so
// some cells score exactly equal against any probe: tied cells must
// rank lower id first, RankCells must agree with a full sort under the
// (score desc, id asc) order, and every nprobe must return a prefix of
// the full ranking.
func TestRankCellsExactTies(t *testing.T) {
	const features = 5
	rng := rand.New(rand.NewSource(41))
	distinct := make([]float64, 4*features)
	for i := range distinct {
		distinct[i] = rng.NormFloat64()
	}
	for _, layout := range [][]int{
		{2, 0, 2, 1, 3, 0, 1, 2, 3, 0, 1}, // every centroid two or three times
		{1, 1, 1, 1, 1, 1},                // every cell tied
	} {
		x := &Index{features: features, cells: len(layout)}
		for _, d := range layout {
			x.centroids = append(x.centroids, distinct[d*features:(d+1)*features]...)
		}
		x.derive()
		for trial := 0; trial < 4; trial++ {
			probe := make([]float64, features)
			if trial > 0 { // trial 0 is the zero probe: scores are -‖c‖²/2
				for f := range probe {
					probe[f] = rng.NormFloat64()
				}
			}
			score := make([]float64, x.Cells())
			want := make([]int, x.Cells())
			for c := range want {
				want[c] = c
				score[c] = linalg.Dot(centroid(x, c), probe) - x.halfNorm[c]
			}
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				return score[a] > score[b] || (score[a] == score[b] && a < b)
			})
			full := x.RankCells(probe, x.Cells())
			if fmt.Sprint(full) != fmt.Sprint(want) {
				t.Fatalf("layout %v trial %d: RankCells = %v, sorted order %v", layout, trial, full, want)
			}
			for i := 1; i < len(full); i++ {
				if layout[full[i]] == layout[full[i-1]] && full[i] < full[i-1] {
					t.Fatalf("layout %v trial %d: tied cells %d before %d", layout, trial, full[i-1], full[i])
				}
			}
			for n := 0; n <= x.Cells(); n++ {
				if got := x.RankCells(probe, n); fmt.Sprint(got) != fmt.Sprint(full[:n]) {
					t.Fatalf("layout %v trial %d: RankCells(%d) = %v, not a prefix of %v", layout, trial, n, got, full)
				}
			}
		}
	}
}
