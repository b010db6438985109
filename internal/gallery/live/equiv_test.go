package live

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
)

// TestLiveEquivalentToColdAfterMixedOpsAndCompaction is the tentpole
// acceptance property: a live gallery that reached its record set
// through >100 interleaved online enrolls and deletes — spanning a
// compaction, so records are spread across the immutable base and the
// memtable overlay — answers TopK/QueryAll/DenseSimilarity with
// bit-identical scores and the identical (score desc, ID asc) ranking
// as a cold store offline-enrolled with the same final records, at
// serial AND all-cores parallelism.
func TestLiveEquivalentToColdAfterMixedOpsAndCompaction(t *testing.T) {
	eachKernel(t, testLiveEquivalentToColdAfterMixedOpsAndCompaction)
}

func testLiveEquivalentToColdAfterMixedOpsAndCompaction(t *testing.T) {
	const features, cohort, k = 19, 90, 7
	group := randomGroup(31, features, cohort)
	ids := subjectIDs(cohort)

	e, err := Create(filepath.Join(t.TempDir(), "live"), features, nil, Options{NoSync: true, Shards: 3})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer e.Close()

	// Scripted mixed workload, ≥100 mutations: enroll the first 60,
	// delete every 4th of them, compact mid-stream, enroll the rest,
	// re-enroll 5 of the deleted, delete a few post-compaction records.
	ops := 0
	enrolled := map[string]bool{}
	enroll := func(j int) {
		if err := e.Enroll(ids[j], group.Col(j)); err != nil {
			t.Fatalf("op %d: Enroll(%q): %v", ops, ids[j], err)
		}
		enrolled[ids[j]] = true
		ops++
	}
	del := func(j int) {
		if err := e.Delete(ids[j]); err != nil {
			t.Fatalf("op %d: Delete(%q): %v", ops, ids[j], err)
		}
		delete(enrolled, ids[j])
		ops++
	}
	for j := 0; j < 60; j++ {
		enroll(j)
	}
	for j := 0; j < 60; j += 4 {
		del(j)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("mid-stream Compact: %v", err)
	}
	for j := 60; j < cohort; j++ {
		enroll(j)
	}
	for j := 0; j < 20; j += 4 {
		enroll(j) // re-enroll deleted subjects
	}
	for _, j := range []int{61, 77} {
		del(j)
	}
	if ops < 100 {
		t.Fatalf("workload ran only %d mutations, want >= 100", ops)
	}

	// The cold reference: offline-enroll exactly the surviving records
	// (same raw vectors, same enrollment code path) into a sharded
	// store — the engine a restart-per-update deployment would serve.
	cold := gallery.New(features)
	for j, id := range ids {
		if !enrolled[id] {
			continue
		}
		if err := cold.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("cold Enroll: %v", err)
		}
	}
	coldStore, err := shard.FromGallery(cold, 3, false)
	if err != nil {
		t.Fatalf("cold FromGallery: %v", err)
	}
	if e.Len() != coldStore.Len() {
		t.Fatalf("record sets diverged: live %d vs cold %d", e.Len(), coldStore.Len())
	}

	probes := noisyProbes(group, 32)
	assertEnginesAgree(t, "pre-compaction-overlay", coldStore, e, probes, k)

	// Fold everything and compare again: now every record is in the
	// base and the overlay is empty.
	if err := e.Compact(); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	assertEnginesAgree(t, "post-compaction", coldStore, e, probes, k)
}

// noisyProbes derives probe columns from the known group: noisy
// variants of known subjects, so rankings are non-trivial.
func noisyProbes(known *linalg.Matrix, seed int64) *linalg.Matrix {
	f, n := known.Dims()
	anon := randomGroup(seed, f, n)
	for j := 0; j < n; j++ {
		kc, ac := known.Col(j), anon.Col(j)
		for i := range ac {
			ac[i] = kc[i] + 0.3*ac[i]
		}
		anon.SetCol(j, ac)
	}
	return anon
}

// assertEnginesAgree checks TopK, QueryAll, and DenseSimilarity between
// the cold store and the live engine at parallelism 1 and 0, requiring
// identical IDs and bit-identical scores at every rank.
func assertEnginesAgree(t *testing.T, phase string, cold *shard.Store, e *Engine, probes *linalg.Matrix, k int) {
	t.Helper()
	assertEnginesAgreeAt(t, phase, cold, e, probes, k, 1, 0)
}

// assertEnginesAgreeAt is assertEnginesAgree at the given parallelism
// settings.
func assertEnginesAgreeAt(t *testing.T, phase string, cold *shard.Store, e *Engine, probes *linalg.Matrix, k int, pars ...int) {
	t.Helper()
	for _, par := range pars {
		name := fmt.Sprintf("%s par=%d", phase, par)
		wantRanked, err := cold.QueryAllCtx(context.Background(), probes, k, par)
		if err != nil {
			t.Fatalf("%s: cold QueryAll: %v", name, err)
		}
		gotRanked, err := e.QueryAllCtx(context.Background(), probes, k, par)
		if err != nil {
			t.Fatalf("%s: live QueryAll: %v", name, err)
		}
		for j := range wantRanked {
			if len(gotRanked[j]) != len(wantRanked[j]) {
				t.Fatalf("%s probe %d: %d candidates, want %d", name, j, len(gotRanked[j]), len(wantRanked[j]))
			}
			for r := range wantRanked[j] {
				got, want := gotRanked[j][r], wantRanked[j][r]
				if got.ID != want.ID {
					t.Fatalf("%s probe %d rank %d: subject %q != %q", name, j, r, got.ID, want.ID)
				}
				if got.Score != want.Score {
					t.Fatalf("%s probe %d rank %d: score %v != %v (not bit-identical)", name, j, r, got.Score, want.Score)
				}
				if e.ID(got.Index) != got.ID {
					t.Fatalf("%s probe %d rank %d: live Index %d resolves to %q, not %q",
						name, j, r, got.Index, e.ID(got.Index), got.ID)
				}
			}
		}
		// Single-probe path agrees with the batch path.
		topCold, err := cold.TopKCtx(context.Background(), probes.Col(0), k, par)
		if err != nil {
			t.Fatalf("%s: cold TopK: %v", name, err)
		}
		topLive, err := e.TopKCtx(context.Background(), probes.Col(0), k, par)
		if err != nil {
			t.Fatalf("%s: live TopK: %v", name, err)
		}
		for r := range topCold {
			if topCold[r].ID != topLive[r].ID || topCold[r].Score != topLive[r].Score {
				t.Fatalf("%s rank %d: TopK diverged: (%q,%v) vs (%q,%v)",
					name, r, topLive[r].ID, topLive[r].Score, topCold[r].ID, topCold[r].Score)
			}
		}
		// Dense rows match per subject ID (row order differs between
		// enumerations; scores must be the same bits).
		wantDense, _, err := cold.DenseSimilarityCtx(t.Context(), probes, par)
		if err != nil {
			t.Fatalf("%s: cold Dense: %v", name, err)
		}
		gotDense, gotIDs, err := e.DenseSimilarityCtx(t.Context(), probes, par)
		if err != nil {
			t.Fatalf("%s: live Dense: %v", name, err)
		}
		if !slices.Equal(gotIDs, e.IDs()) {
			t.Fatalf("%s: live dense row labels %v, engine IDs %v", name, gotIDs, e.IDs())
		}
		_, m := wantDense.Dims()
		for gi, id := range cold.IDs() {
			li := e.Index(id)
			if li < 0 {
				t.Fatalf("%s: %q missing from live engine", name, id)
			}
			for j := 0; j < m; j++ {
				if wantDense.At(gi, j) != gotDense.At(li, j) {
					t.Fatalf("%s: dense(%q, %d) diverged: %v != %v",
						name, id, j, gotDense.At(li, j), wantDense.At(gi, j))
				}
			}
		}
	}
}

// TestEnrollsRacingQueries drives concurrent mutators and queriers
// through one engine; under -race (the CI default) this pins the
// locking discipline, and the final state must contain every enrolled
// subject exactly once with queries never observing an inconsistency.
func TestEnrollsRacingQueries(t *testing.T) {
	const features, writers, perWriter = 12, 4, 30
	e := createEngine(t, features, Options{CompactAfter: 25, Shards: 2})
	// Seed a few records so queries always have something to rank.
	seed := randomGroup(41, features, 3)
	for j, id := range []string{"seed-a", "seed-b", "seed-c"} {
		if err := e.Enroll(id, seed.Col(j)); err != nil {
			t.Fatalf("seed Enroll: %v", err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			vec := make([]float64, features)
			for i := 0; i < perWriter; i++ {
				for f := range vec {
					vec[f] = rng.NormFloat64()
				}
				id := fmt.Sprintf("w%d-%04d", w, i)
				if err := e.Enroll(id, vec); err != nil {
					errc <- fmt.Errorf("Enroll(%q): %w", id, err)
					return
				}
				if i%7 == 3 {
					if err := e.Delete(id); err != nil {
						errc <- fmt.Errorf("Delete(%q): %w", id, err)
						return
					}
				}
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			probe := randomGroup(int64(200+q), features, 1).Col(0)
			for i := 0; i < 50; i++ {
				top, err := e.TopKCtx(context.Background(), probe, 5, 0)
				if err != nil {
					errc <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				for r := 1; r < len(top); r++ {
					if gallery.BetterByID(top[r], top[r-1]) {
						errc <- fmt.Errorf("query %d: ranking out of order at %d", i, r)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	e.wg.Wait() // drain any background compaction before the final audit

	wantLen := 3 + writers*perWriter - writers*len([]int{3, 10, 17, 24})
	if e.Len() != wantLen {
		t.Fatalf("final Len = %d, want %d", e.Len(), wantLen)
	}
	for _, id := range e.IDs() {
		if e.ID(e.Index(id)) != id {
			t.Fatalf("enumeration inconsistent for %q", id)
		}
	}
}
