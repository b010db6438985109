package gallery

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"brainprint/internal/linalg"
	"brainprint/internal/match"
)

// queryAll is the exact sweep every engine runs, over one gallery's rows
// in enrollment order under the ID tiebreak: what shard.Wrap(g) answers,
// without the import cycle.
func queryAll(ctx context.Context, g *Gallery, probes *linalg.Matrix, k, par int) ([][]Candidate, error) {
	k, err := ClampK(k, g.Len())
	if err != nil {
		return nil, err
	}
	zps, err := PrepProbes(probes, g.Features(), g.FeatureIndex(), par)
	if err != nil {
		return nil, err
	}
	return ScanUnits(ctx, g.AppendUnits(nil, 0), zps, k, par, nil)
}

// topK is queryAll for one probe vector, normalized the way every
// single-probe query is.
func topK(ctx context.Context, g *Gallery, probe []float64, k, par int) ([]Candidate, error) {
	k, err := ClampK(k, g.Len())
	if err != nil {
		return nil, err
	}
	zp, err := g.Normalize(probe)
	if err != nil {
		return nil, err
	}
	lists, err := ScanUnits(ctx, g.AppendUnits(nil, 0), [][]float64{zp}, k, par, nil)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// TestRoundTripTopKMatchesSimilarityMatrix is the acceptance property
// of the gallery's stored rows: Save→Load→scan(k=n) must reproduce the
// rankings of match.SimilarityMatrix bit-identically — same candidate
// order, same scores to the last bit — at any parallelism setting.
func TestRoundTripTopKMatchesSimilarityMatrix(t *testing.T) {
	eachKernel(t, testRoundTripTopKMatchesSimilarityMatrix)
}

func testRoundTripTopKMatchesSimilarityMatrix(t *testing.T) {
	const features, subjects, probes = 37, 25, 25
	known := randomGroup(11, features, subjects)
	// Probes: noisy variants of the known columns plus fresh columns, so
	// rankings are non-trivial and include near-ties.
	anon := randomGroup(12, features, probes)
	for j := 0; j < probes/2; j++ {
		kc, ac := known.Col(j), anon.Col(j)
		for i := range ac {
			ac[i] = kc[i] + 0.3*ac[i]
		}
		anon.SetCol(j, ac)
	}

	sim, err := match.SimilarityMatrix(known, anon)
	if err != nil {
		t.Fatalf("SimilarityMatrix: %v", err)
	}

	g := New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	for _, par := range []int{1, 0, 3} {
		// Batched query path.
		ranked, err := queryAll(context.Background(), loaded, anon, subjects, par)
		if err != nil {
			t.Fatalf("queryAll(par=%d): %v", par, err)
		}
		for j := 0; j < probes; j++ {
			want := rankColumn(sim.Col(j), loaded.IDs())
			got := ranked[j]
			if len(got) != subjects {
				t.Fatalf("par=%d probe %d: %d candidates want %d", par, j, len(got), subjects)
			}
			for r := range want {
				if got[r].Index != want[r] {
					t.Fatalf("par=%d probe %d rank %d: candidate %d want %d", par, j, r, got[r].Index, want[r])
				}
				if got[r].Score != sim.At(want[r], j) {
					t.Fatalf("par=%d probe %d rank %d: score %v != similarity-matrix %v (not bit-identical)",
						par, j, r, got[r].Score, sim.At(want[r], j))
				}
			}
		}
		// Single-probe path must agree with the batch.
		single, err := topK(context.Background(), loaded, anon.Col(0), subjects, par)
		if err != nil {
			t.Fatalf("topK(par=%d): %v", par, err)
		}
		for r := range single {
			if single[r] != ranked[0][r] {
				t.Fatalf("par=%d: topK and queryAll disagree at rank %d", par, r)
			}
		}
		// Dense fallback: the full matrix, bit for bit.
		dense, err := DenseSimilarity(context.Background(), anon, loaded.Len(), features, nil, loaded.Fingerprint, par)
		if err != nil {
			t.Fatalf("DenseSimilarity(par=%d): %v", par, err)
		}
		dr, dc := dense.Dims()
		if dr != subjects || dc != probes {
			t.Fatalf("par=%d: dense is %dx%d want %dx%d", par, dr, dc, subjects, probes)
		}
		for i := 0; i < subjects; i++ {
			for j := 0; j < probes; j++ {
				if dense.At(i, j) != sim.At(i, j) {
					t.Fatalf("par=%d: dense (%d,%d) = %v != %v", par, i, j, dense.At(i, j), sim.At(i, j))
				}
			}
		}
	}
}

// rankColumn returns subject indices ordered the way every engine ranks
// them: a brute-force sort of one similarity column under BetterByID.
func rankColumn(scores []float64, ids []string) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		return BetterByID(Candidate{ID: ids[i], Score: scores[i]}, Candidate{ID: ids[j], Score: scores[j]})
	})
	return idx
}

// TestTopKPrefixStable checks that a small k returns exactly the prefix
// of the full ranking — partial selection never reorders.
func TestTopKPrefixStable(t *testing.T) { eachKernel(t, testTopKPrefixStable) }

func testTopKPrefixStable(t *testing.T) {
	const features, subjects = 23, 40
	known := randomGroup(21, features, subjects)
	g := New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	probe := randomGroup(22, features, 1).Col(0)
	full, err := topK(context.Background(), g, probe, subjects, 1)
	if err != nil {
		t.Fatalf("topK full: %v", err)
	}
	for _, k := range []int{1, 3, 17} {
		for _, par := range []int{1, 0, 5} {
			top, err := topK(context.Background(), g, probe, k, par)
			if err != nil {
				t.Fatalf("topK(k=%d, par=%d): %v", k, par, err)
			}
			if len(top) != k {
				t.Fatalf("k=%d par=%d: got %d candidates", k, par, len(top))
			}
			for r := range top {
				if top[r] != full[r] {
					t.Fatalf("k=%d par=%d rank %d: %+v != full ranking %+v", k, par, r, top[r], full[r])
				}
			}
		}
	}
}
