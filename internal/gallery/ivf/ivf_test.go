package ivf

import (
	"context"
	"math/rand"
	"testing"

	"brainprint/internal/linalg"
)

// testShards builds deterministic per-shard record sets; the returned
// closure is the fingerprint provider Build expects.
// centroid returns cell c's centroid, aliased.
func centroid(x *Index, c int) []float64 {
	return x.centroids[c*x.features : (c+1)*x.features]
}

func testShards(seed int64, features int, counts []int) func(si, li int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	recs := make([][][]float64, len(counts))
	for si, n := range counts {
		recs[si] = make([][]float64, n)
		for li := range recs[si] {
			v := make([]float64, features)
			for f := range v {
				v[f] = rng.NormFloat64()
			}
			recs[si][li] = v
		}
	}
	return func(si, li int) []float64 { return recs[si][li] }
}

func buildIndex(t testing.TB, cfg Config, features int, counts []int, dataSeed int64) *Index {
	t.Helper()
	x, err := Build(context.Background(), cfg, features, counts, testShards(dataSeed, features, counts))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return x
}

func TestDefaultCellsBounds(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1},    // clamp-to-n beats the floor
		{3, 3},    // ditto
		{4, 4},    // floor
		{16, 4},   // √16 = floor
		{100, 10}, // √n regime
		{101, 11}, // ceil
		{10_000, 100},
		{262_144, 512},   // √n hits the cap exactly
		{1_000_000, 512}, // cap
	} {
		if got := DefaultCells(tc.n); got != tc.want {
			t.Errorf("DefaultCells(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	fp := testShards(1, 8, []int{10})
	if _, err := Build(ctx, Config{}, 0, []int{10}, fp); err == nil {
		t.Error("Build(features=0) succeeded")
	}
	if _, err := Build(ctx, Config{}, 8, nil, fp); err == nil {
		t.Error("Build(no shards) succeeded")
	}
	if _, err := Build(ctx, Config{}, 8, []int{0, 0}, func(si, li int) []float64 { return nil }); err == nil {
		t.Error("Build(no records) succeeded")
	}
	if _, err := Build(ctx, Config{}, 8, []int{10, -1}, fp); err == nil {
		t.Error("Build(negative count) succeeded")
	}
	if _, err := Build(ctx, Config{Cells: 11}, 8, []int{10}, fp); err == nil {
		t.Error("Build(cells > records) succeeded")
	}
	if _, err := Build(ctx, Config{Cells: maxCells + 1}, 8, []int{10}, fp); err == nil {
		t.Error("Build(cells > maxCells) succeeded")
	}
}

// TestBuildDeterministicAcrossParallelism pins the core training
// contract: the trained index depends only on the records, the cell
// count, and the seed — never on the worker count.
func TestBuildDeterministicAcrossParallelism(t *testing.T) {
	const features = 24
	counts := []int{40, 25, 35}
	ref := buildIndex(t, Config{Cells: 8, Seed: 7, Parallelism: 1}, features, counts, 11)
	for _, par := range []int{0, 3} {
		x := buildIndex(t, Config{Cells: 8, Seed: 7, Parallelism: par}, features, counts, 11)
		for c := 0; c < ref.Cells(); c++ {
			want, got := centroid(ref, c), centroid(x, c)
			for f := range want {
				if got[f] != want[f] {
					t.Fatalf("par=%d cell %d feature %d: centroid %v != %v (not bit-identical)",
						par, c, f, got[f], want[f])
				}
			}
		}
		for si := range counts {
			for c := 0; c < ref.Cells(); c++ {
				want, got := ref.Postings(si, c), x.Postings(si, c)
				if len(got) != len(want) {
					t.Fatalf("par=%d shard %d cell %d: %d postings != %d", par, si, c, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("par=%d shard %d cell %d entry %d: %d != %d", par, si, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBuildPartitionsEveryRecord asserts the partition invariant from
// the outside: per shard, every local index appears in exactly one
// posting list and lists are strictly ascending.
func TestBuildPartitionsEveryRecord(t *testing.T) {
	counts := []int{57, 1, 42}
	x := buildIndex(t, Config{Cells: 6, Seed: 3}, 16, counts, 13)
	if x.Shards() != len(counts) {
		t.Fatalf("Shards() = %d, want %d", x.Shards(), len(counts))
	}
	for si, count := range counts {
		if x.ShardCount(si) != count {
			t.Fatalf("ShardCount(%d) = %d, want %d", si, x.ShardCount(si), count)
		}
		seen := make([]bool, count)
		for c := 0; c < x.Cells(); c++ {
			prev := -1
			for _, li := range x.Postings(si, c) {
				if int(li) >= count {
					t.Fatalf("shard %d cell %d posts %d beyond count %d", si, c, li, count)
				}
				if int(li) <= prev {
					t.Fatalf("shard %d cell %d posting list not strictly ascending", si, c)
				}
				if seen[li] {
					t.Fatalf("shard %d record %d posted twice", si, li)
				}
				seen[li] = true
				prev = int(li)
			}
		}
		for li, ok := range seen {
			if !ok {
				t.Fatalf("shard %d record %d never posted", si, li)
			}
		}
	}
}

// TestRankCellsOrderAndClamp checks the probe-side ranking: scores are
// non-increasing under the v·c − ‖c‖²/2 measure, ties break toward the
// lower cell id, a small nprobe is a prefix of the full ranking, and an
// oversized nprobe clamps to the cell count.
func TestRankCellsOrderAndClamp(t *testing.T) {
	const features = 12
	counts := []int{80}
	x := buildIndex(t, Config{Cells: 9, Seed: 5}, features, counts, 17)
	probe := make([]float64, features)
	rng := rand.New(rand.NewSource(19))
	for f := range probe {
		probe[f] = rng.NormFloat64()
	}
	score := func(c int) float64 {
		cent := centroid(x, c)
		return linalg.Dot(probe, cent) - 0.5*linalg.Dot(cent, cent)
	}
	full := x.RankCells(probe, x.Cells()+100)
	if len(full) != x.Cells() {
		t.Fatalf("oversized nprobe returned %d cells, want %d", len(full), x.Cells())
	}
	seen := map[int]bool{}
	for i, c := range full {
		if c < 0 || c >= x.Cells() || seen[c] {
			t.Fatalf("rank %d: invalid or repeated cell %d", i, c)
		}
		seen[c] = true
		if i > 0 {
			prev := full[i-1]
			sp, sc := score(prev), score(c)
			if sc > sp || (sc == sp && c < prev) {
				t.Fatalf("ranking violated at %d: cell %d (%.6f) after cell %d (%.6f)", i, c, sc, prev, sp)
			}
		}
	}
	short := x.RankCells(probe, 3)
	if len(short) != 3 {
		t.Fatalf("RankCells(3) returned %d cells", len(short))
	}
	for i := range short {
		if short[i] != full[i] {
			t.Fatalf("RankCells(3)[%d] = %d, not a prefix of the full ranking (%d)", i, short[i], full[i])
		}
	}
}

// TestBuildSeedSensitivity: different seeds train different centroids,
// so the persisted seed genuinely pins the index identity.
func TestBuildSeedSensitivity(t *testing.T) {
	counts := []int{120}
	a := buildIndex(t, Config{Cells: 8, Seed: 1}, 16, counts, 23)
	b := buildIndex(t, Config{Cells: 8, Seed: 2}, 16, counts, 23)
	for c := 0; c < a.Cells(); c++ {
		ca, cb := centroid(a, c), centroid(b, c)
		for f := range ca {
			if ca[f] != cb[f] {
				return // differs somewhere — good
			}
		}
	}
	t.Fatal("seeds 1 and 2 trained bit-identical centroids")
}

// TestDefaultCellsUsedWhenUnset: Cells=0 resolves through DefaultCells
// over the total record count across shards.
func TestDefaultCellsUsedWhenUnset(t *testing.T) {
	counts := []int{60, 40} // total 100 → 10 cells
	x := buildIndex(t, Config{Seed: 9}, 8, counts, 29)
	if want := DefaultCells(100); x.Cells() != want {
		t.Fatalf("Cells() = %d, want DefaultCells(100) = %d", x.Cells(), want)
	}
	if x.Seed() != 9 {
		t.Fatalf("Seed() = %d, want 9", x.Seed())
	}
	if x.Features() != 8 {
		t.Fatalf("Features() = %d, want 8", x.Features())
	}
}

// TestBuildCancellation: a cancelled context aborts training.
func TestBuildCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counts := []int{500}
	_, err := Build(ctx, Config{Cells: 16, Seed: 1}, 32, counts, testShards(31, 32, counts))
	if err == nil {
		t.Fatal("Build with a cancelled context succeeded")
	}
}

func TestSidecarPathSuffix(t *testing.T) {
	for _, db := range []string{"g.bpm", "/tmp/x/hcp.bpg"} {
		if got := SidecarPath(db); got != db+".ivf" {
			t.Errorf("SidecarPath(%q) = %q", db, got)
		}
	}
}
