package shard

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
)

// noisyProbes derives probe columns from the known group: half are
// noisy variants of known subjects (so rankings are non-trivial and
// top-1 is meaningful), half are fresh vectors.
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

// TestShardedTopKBitIdenticalToSingleFile is the tentpole acceptance
// property: at ANY shard count and ANY parallelism, the sharded store's
// TopK/QueryAll return the same subjects with bit-identical scores as a
// brute-force sort, under the ID tiebreak, of the single-file gallery's
// full similarity matrix (whose scores are in turn pinned to
// match.SimilarityMatrix by the gallery package's own equivalence
// test).
func TestShardedTopKBitIdenticalToSingleFile(t *testing.T) {
	EachKernel(t, testShardedTopKBitIdenticalToSingleFile)
}

func testShardedTopKBitIdenticalToSingleFile(t *testing.T) {
	const features, subjects, k = 23, 120, 9
	known := randomGroup(21, features, subjects)
	anon := noisyProbes(known, 22)
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	wantRanked, wantDense := exactRanked(t, g, anon, k)

	for _, shards := range []int{1, 2, 4, 7, 32} {
		s, err := FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("FromGallery(%d): %v", shards, err)
		}
		for _, par := range []int{1, 0, 3} {
			name := fmt.Sprintf("shards=%d par=%d", shards, par)
			ranked, err := s.QueryAllCtx(context.Background(), anon, k, par)
			if err != nil {
				t.Fatalf("%s: QueryAll: %v", name, err)
			}
			for j := range ranked {
				if len(ranked[j]) != k {
					t.Fatalf("%s probe %d: %d candidates, want %d", name, j, len(ranked[j]), k)
				}
				for r := range ranked[j] {
					got, want := ranked[j][r], wantRanked[j][r]
					if got.ID != want.ID {
						t.Fatalf("%s probe %d rank %d: subject %q != %q", name, j, r, got.ID, want.ID)
					}
					if got.Score != want.Score {
						t.Fatalf("%s probe %d rank %d: score %v != %v (not bit-identical)",
							name, j, r, got.Score, want.Score)
					}
					if s.ID(got.Index) != got.ID {
						t.Fatalf("%s probe %d rank %d: Index %d resolves to %q, not %q",
							name, j, r, got.Index, s.ID(got.Index), got.ID)
					}
				}
			}
			// Single-probe path agrees with the batch.
			single, err := s.TopKCtx(context.Background(), anon.Col(0), k, par)
			if err != nil {
				t.Fatalf("%s: TopK: %v", name, err)
			}
			for r := range single {
				if single[r] != ranked[0][r] {
					t.Fatalf("%s: TopK and QueryAll disagree at rank %d", name, r)
				}
			}
			// Dense path: same scores per (subject, probe) pair, rows
			// remapped through the store's global enumeration.
			dense, ids, err := s.DenseSimilarityCtx(context.Background(), anon, par)
			if err != nil {
				t.Fatalf("%s: DenseSimilarity: %v", name, err)
			}
			if !slices.Equal(ids, s.IDs()) {
				t.Fatalf("%s: dense row labels %v, store IDs %v", name, ids, s.IDs())
			}
			for gi := 0; gi < s.Len(); gi++ {
				srcIdx := g.Index(s.ID(gi))
				for j := 0; j < subjects; j++ {
					if dense.At(gi, j) != wantDense.At(srcIdx, j) {
						t.Fatalf("%s: dense (%d,%d) = %v != %v", name, gi, j, dense.At(gi, j), wantDense.At(srcIdx, j))
					}
				}
			}
		}
	}
}

// TestShardedResultIndependentOfShardCount pins the determinism
// argument directly: every (shard count, parallelism) combination must
// return the same ranking as every other, not just the same as the
// reference.
func TestShardedResultIndependentOfShardCount(t *testing.T) {
	EachKernel(t, testShardedResultIndependentOfShardCount)
}

func testShardedResultIndependentOfShardCount(t *testing.T) {
	const features, subjects, k = 17, 90, 12
	g := buildGallery(t, 31, features, subjects)
	probe := randomGroup(33, features, 1).Col(0)
	var ref []gallery.Candidate
	for _, shards := range []int{1, 3, 8, 17} {
		s, err := FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("FromGallery(%d): %v", shards, err)
		}
		for _, par := range []int{1, 0, 5} {
			top, err := s.TopKCtx(context.Background(), probe, k, par)
			if err != nil {
				t.Fatalf("shards=%d par=%d: %v", shards, par, err)
			}
			if ref == nil {
				ref = top
				continue
			}
			for r := range ref {
				if top[r].ID != ref[r].ID || top[r].Score != ref[r].Score {
					t.Fatalf("shards=%d par=%d rank %d: (%s, %v) != reference (%s, %v)",
						shards, par, r, top[r].ID, top[r].Score, ref[r].ID, ref[r].Score)
				}
			}
		}
	}
}

// TestQueryCancellation: a cancelled context aborts the fan-out.
func TestQueryCancellation(t *testing.T) {
	g := buildGallery(t, 61, 32, 200)
	s, err := FromGallery(g, 4, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probe := randomGroup(62, 32, 1).Col(0)
	if _, err := s.TopKCtx(ctx, probe, 5, 0); err != context.Canceled {
		t.Fatalf("TopKCtx(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := s.QueryAllCtx(ctx, randomGroup(63, 32, 4), 5, 0); err != context.Canceled {
		t.Fatalf("QueryAllCtx(cancelled) = %v, want context.Canceled", err)
	}
	if _, _, err := s.DenseSimilarityCtx(ctx, randomGroup(64, 32, 4), 0); err != context.Canceled {
		t.Fatalf("DenseSimilarityCtx(cancelled) = %v, want context.Canceled", err)
	}
}

// TestQueryValidation: a bad k is rejected and an oversized k clamps
// (probe-shape validation is pinned for every engine by the live
// package's TestProbePrepSharedAcrossEngines).
func TestQueryValidation(t *testing.T) {
	g := buildGallery(t, 71, 8, 10)
	s, err := FromGallery(g, 2, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	if _, err := s.TopKCtx(context.Background(), make([]float64, 8), 0, 0); err == nil {
		t.Fatal("TopK(k=0) succeeded")
	}
	// k beyond the store clamps.
	top, err := s.TopKCtx(context.Background(), make([]float64, 8), 99, 0)
	if err != nil {
		t.Fatalf("TopK(k=99): %v", err)
	}
	if len(top) != 10 {
		t.Fatalf("clamped top-k has %d candidates, want 10", len(top))
	}
}
