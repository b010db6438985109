package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
)

// The multi-unit cohort. The scan plan cuts a gallery into units of
// ~256k multiply-adds, so the small cohorts of the other equivalence
// tests (≤ 1,000 subjects × ≤ 100 features) never put two units in one
// shard. At 2,048 features a unit is 132 records and every shard below
// spans at least three, so scans cross unit boundaries inside a shard,
// runs cross shard boundaries, and the selection threshold is carried
// over both. A fifth of the records are exact duplicates of one vector
// and a seventh of another, under distinct IDs whose lexicographic
// order is a shuffle of enrollment order: ties sit on both sides of
// every unit and shard boundary, and only the ID tiebreak, not the scan
// order, can resolve them.
const (
	muFeatures = 2048
	muSubjects = 2400
	muK        = 9
)

// muCohort returns the cohort's IDs and fingerprints (columns) plus
// five probes: each twin vector under noise (every twin ties at the
// top), a noisy copy of an ordinary record, a fresh vector, and a blend
// of the two twin vectors. Five is odd, so a batch runs both the
// probe-pair kernel and the odd-probe tail.
func muCohort() ([]string, *linalg.Matrix, *linalg.Matrix) {
	rng := rand.New(rand.NewSource(131))
	vec := func() []float64 {
		v := make([]float64, muFeatures)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	noisy := func(a, b []float64) []float64 {
		v := vec()
		for i := range v {
			v[i] = a[i] + b[i] + 0.3*v[i]
		}
		return v
	}
	twinA, twinB, zero := vec(), vec(), make([]float64, muFeatures)
	ids := make([]string, muSubjects)
	known := linalg.NewMatrix(muFeatures, muSubjects)
	for j := range ids {
		ids[j] = fmt.Sprintf("s%05d", j*7919%muSubjects)
		switch {
		case j%5 == 0:
			known.SetCol(j, twinA)
		case j%7 == 3:
			known.SetCol(j, twinB)
		default:
			known.SetCol(j, vec())
		}
	}
	probes := linalg.NewMatrix(muFeatures, 5)
	probes.SetCol(0, noisy(twinA, zero))
	probes.SetCol(1, noisy(twinB, zero))
	probes.SetCol(2, noisy(known.Col(1), zero))
	probes.SetCol(3, vec())
	probes.SetCol(4, noisy(twinA, twinB))
	return ids, known, probes
}

// bruteForce ranks every unmasked row of the dense similarity matrix
// under gallery.BetterByID and keeps the best k per probe — the
// reference every scan must reproduce.
func bruteForce(eng gallery.Engine, dense *linalg.Matrix, k int, skip []bool) [][]gallery.Candidate {
	n, m := dense.Dims()
	out := make([][]gallery.Candidate, m)
	for j := range out {
		var all []gallery.Candidate
		for i := 0; i < n; i++ {
			if skip == nil || !skip[i] {
				all = append(all, gallery.Candidate{Index: i, ID: eng.ID(i), Score: dense.At(i, j)})
			}
		}
		sort.Slice(all, func(a, b int) bool { return gallery.BetterByID(all[a], all[b]) })
		out[j] = all[:k]
	}
	return out
}

// assertRanked requires got to equal want candidate for candidate:
// same IDs, same indices, same score bits.
func assertRanked(t *testing.T, name string, got, want [][]gallery.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranked lists, want %d", name, len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("%s probe %d: %d candidates, want %d", name, j, len(got[j]), len(want[j]))
		}
		for r := range want[j] {
			if got[j][r] != want[j][r] {
				t.Fatalf("%s probe %d rank %d: %+v, want %+v", name, j, r, got[j][r], want[j][r])
			}
		}
	}
}

// assertEngine checks one engine at parallelism {1, 0, 3}: QueryAllCtx
// against the brute-force reference, and TopKCtx of each probe against
// the batch's list for that probe.
func assertEngine(t *testing.T, name string, eng gallery.Engine, probes *linalg.Matrix) {
	t.Helper()
	ctx := context.Background()
	dense, _, err := eng.DenseSimilarityCtx(ctx, probes, 0)
	if err != nil {
		t.Fatalf("%s: DenseSimilarityCtx: %v", name, err)
	}
	want := bruteForce(eng, dense, muK, nil)
	for _, par := range []int{1, 0, 3} {
		name := fmt.Sprintf("%s par=%d", name, par)
		got, err := eng.QueryAllCtx(ctx, probes, muK, par)
		if err != nil {
			t.Fatalf("%s: QueryAllCtx: %v", name, err)
		}
		assertRanked(t, name, got, want)
		for p := range got {
			top, err := eng.TopKCtx(ctx, probes.Col(p), muK, par)
			if err != nil {
				t.Fatalf("%s: TopKCtx(probe %d): %v", name, p, err)
			}
			assertRanked(t, fmt.Sprintf("%s TopKCtx(probe %d) vs batch", name, p), [][]gallery.Candidate{top}, got[p:p+1])
		}
	}
}

// shardBounds returns, for a store of the cohort at the given shard
// count, each shard's first global index and record count, requiring
// every shard to span at least three scan units of grain records.
func shardBounds(t *testing.T, ids []string, shards, grain int) (bases, counts []int) {
	t.Helper()
	counts = make([]int, shards)
	for _, id := range ids {
		counts[shard.RouteID(id, shards)]++
	}
	bases = make([]int, shards)
	for si, c := range counts {
		if c <= 2*grain {
			t.Fatalf("shards=%d: shard %d holds %d records, needs > %d to span three units", shards, si, c, 2*grain)
		}
		if si > 0 {
			bases[si] = bases[si-1] + counts[si-1]
		}
	}
	return bases, counts
}

// TestScanCrossesUnitAndShardBoundaries pins the exact-scan driver where
// the other equivalence tests cannot reach: several units per shard,
// exact score ties across unit and shard boundaries, and a skip mask on
// boundary records — on the gallery wrapped as one shard, the sharded store
// (exact and IVF with every cell probed), and a live engine with an
// overlay and tombstones.
func TestScanCrossesUnitAndShardBoundaries(t *testing.T) {
	shard.EachKernel(t, testScanCrossesUnitAndShardBoundaries)
}

func testScanCrossesUnitAndShardBoundaries(t *testing.T) {
	ids, known, probes := muCohort()
	g := gallery.New(muFeatures)
	if err := g.EnrollMatrix(ids, known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	grain := g.AppendUnits(nil, 0)[0].Hi
	assertEngine(t, "gallery", shard.Wrap(g), probes)

	ctx := context.Background()
	zcols, err := gallery.PrepProbes(probes, muFeatures, nil, 0)
	if err != nil {
		t.Fatalf("PrepProbes: %v", err)
	}
	for _, shards := range []int{1, 4, 7} {
		name := fmt.Sprintf("shards=%d", shards)
		s, err := shard.FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("%s: FromGallery: %v", name, err)
		}
		bases, counts := shardBounds(t, ids, shards, grain)
		assertEngine(t, name, s, probes)

		// Mask the records on both sides of every shard's first unit
		// boundary and of every shard boundary, plus each probe's
		// unmasked winner so the mask always changes the answer.
		dense, _, err := s.DenseSimilarityCtx(ctx, probes, 0)
		if err != nil {
			t.Fatalf("%s: DenseSimilarityCtx: %v", name, err)
		}
		skip := make([]bool, s.Len())
		for si := range bases {
			for _, gi := range []int{bases[si], bases[si] + grain - 1, bases[si] + grain, bases[si] + counts[si] - 1} {
				skip[gi] = true
			}
		}
		for _, top := range bruteForce(s, dense, 1, nil) {
			skip[top[0].Index] = true
		}
		want := bruteForce(s, dense, muK, skip)
		masked := func(name string) {
			t.Helper()
			for _, par := range []int{1, 0, 3} {
				got, err := s.QueryAllZMasked(ctx, zcols, muK, par, skip)
				if err != nil {
					t.Fatalf("%s par=%d: QueryAllZMasked: %v", name, par, err)
				}
				assertRanked(t, fmt.Sprintf("%s par=%d masked", name, par), got, want)
			}
		}
		masked(name)

		if shards != 4 {
			continue
		}
		// IVF with every cell probed scans each record exactly once, so
		// it must reproduce the exact sweep, masked and unmasked.
		if err := s.BuildANN(ctx, 8, 1, 0); err != nil {
			t.Fatalf("%s: BuildANN: %v", name, err)
		}
		if err := s.SetANNProbe(s.ANNIndex().Cells()); err != nil {
			t.Fatalf("%s: SetANNProbe: %v", name, err)
		}
		assertEngine(t, name+" ivf", s, probes)
		masked(name + " ivf")
		if err := s.SetANNProbe(0); err != nil {
			t.Fatalf("%s: SetANNProbe(0): %v", name, err)
		}

		// A live engine seeded from this store: tombstones on the same
		// boundary records (the base scan runs masked), a re-enrolled
		// twin and fresh records in the overlay, one overlay delete.
		e, err := live.CreateFromStore(filepath.Join(t.TempDir(), "live"), s, live.Options{NoSync: true})
		if err != nil {
			t.Fatalf("CreateFromStore: %v", err)
		}
		t.Cleanup(func() { e.Close() })
		for gi, dead := range skip {
			if dead {
				if err := e.Delete(s.ID(gi)); err != nil {
					t.Fatalf("live Delete(%q): %v", s.ID(gi), err)
				}
			}
		}
		for j, id := range []string{ids[0], "overlay-a", "overlay-b", "overlay-c"} {
			if e.Index(id) >= 0 {
				continue // ids[0] survives when it was not on a boundary
			}
			if err := e.Enroll(id, known.Col(j*5)); err != nil {
				t.Fatalf("live Enroll(%q): %v", id, err)
			}
		}
		if err := e.Delete("overlay-b"); err != nil {
			t.Fatalf("live Delete(overlay-b): %v", err)
		}
		if st := e.Stats(); st.Tombstones == 0 || st.MemRecords == 0 {
			t.Fatalf("live engine has %d tombstones and %d overlay records, want both > 0", st.Tombstones, st.MemRecords)
		}
		assertEngine(t, "live", e, probes)
	}
}

// TestScanSharesPanelsAcrossProbeCounts runs the boundary cohort at the
// batch sizes where the sweep's shared packed panels matter, which the
// five-probe test above never reaches: 9 (a full panel plus a go-body
// probe), 11 (a full and a partial panel) and 17 (two full panels plus
// a go-body probe). Every run of a sweep reads the same panels, so at
// shard counts {1, 4, 7} × parallelism {1, 0, 3} each answer, plain and
// with the boundary records masked, must equal the brute-force sort.
func TestScanSharesPanelsAcrossProbeCounts(t *testing.T) {
	shard.EachKernel(t, testScanSharesPanelsAcrossProbeCounts)
}

func testScanSharesPanelsAcrossProbeCounts(t *testing.T) {
	ids, known, five := muCohort()
	// Past the cohort's five probes: noisy copies of enrolled records,
	// some of them twins.
	rng := rand.New(rand.NewSource(137))
	probes := linalg.NewMatrix(muFeatures, 17)
	for j := range 17 {
		if j < 5 {
			probes.SetCol(j, five.Col(j))
			continue
		}
		v := known.Col(j * 131 % muSubjects)
		for i := range v {
			v[i] += 0.3 * rng.NormFloat64()
		}
		probes.SetCol(j, v)
	}
	g := gallery.New(muFeatures)
	if err := g.EnrollMatrix(ids, known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	grain := g.AppendUnits(nil, 0)[0].Hi
	ctx := context.Background()
	for _, shards := range []int{1, 4, 7} {
		s, err := shard.FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("shards=%d: FromGallery: %v", shards, err)
		}
		bases, counts := shardBounds(t, ids, shards, grain)
		skip := make([]bool, s.Len())
		for si := range bases {
			for _, gi := range []int{bases[si], bases[si] + grain - 1, bases[si] + grain, bases[si] + counts[si] - 1} {
				skip[gi] = true
			}
		}
		for _, n := range []int{9, 11, 17} {
			batch := linalg.NewMatrix(muFeatures, n)
			for j := range n {
				batch.SetCol(j, probes.Col(j))
			}
			dense, _, err := s.DenseSimilarityCtx(ctx, batch, 0)
			if err != nil {
				t.Fatalf("shards=%d probes=%d: DenseSimilarityCtx: %v", shards, n, err)
			}
			zcols, err := gallery.PrepProbes(batch, muFeatures, nil, 0)
			if err != nil {
				t.Fatalf("PrepProbes: %v", err)
			}
			want, wantMasked := bruteForce(s, dense, muK, nil), bruteForce(s, dense, muK, skip)
			for _, par := range []int{1, 0, 3} {
				name := fmt.Sprintf("shards=%d probes=%d par=%d", shards, n, par)
				got, err := s.QueryAllCtx(ctx, batch, muK, par)
				if err != nil {
					t.Fatalf("%s: QueryAllCtx: %v", name, err)
				}
				assertRanked(t, name, got, want)
				got, err = s.QueryAllZMasked(ctx, zcols, muK, par, skip)
				if err != nil {
					t.Fatalf("%s: QueryAllZMasked: %v", name, err)
				}
				assertRanked(t, name+" masked", got, wantMasked)
			}
		}
	}
}
