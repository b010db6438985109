package live

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
)

// TestProbePrepSharedAcrossEngines drives the shared probe-prep helpers
// (gallery.Normalize / PrepProbes / ClampK / DenseSimilarity) through all
// three engines over one feature-indexed cohort: every engine must
// accept the same probe shapes, reject the same ones with the same
// typed error, and — where it answers — return the same scores.
func TestProbePrepSharedAcrossEngines(t *testing.T) {
	const raw, subjects, k = 30, 12, 4
	index := []int{3, 7, 11, 19, 23}
	group := randomGroup(301, raw, subjects)
	g := gallery.WithFeatureIndex(index)
	if err := g.EnrollMatrix(subjectIDs(subjects), group); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	store, err := shard.FromGallery(g, 3, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	eng, err := CreateFromStore(filepath.Join(t.TempDir(), "live"), store, Options{NoSync: true})
	if err != nil {
		t.Fatalf("CreateFromStore: %v", err)
	}
	defer eng.Close()
	engines := []struct {
		name string
		e    gallery.Engine
	}{{"gallery", shard.Wrap(g)}, {"shard", store}, {"live", eng}}

	rawProbes := randomGroup(302, raw, 3)
	for _, tc := range []struct {
		name    string
		probes  *linalg.Matrix
		wantDim bool // rejected with gallery.ErrDimMismatch
		wantErr bool // rejected with some other error
	}{
		{name: "gallery-space", probes: rawProbes.SelectRows(index)},
		{name: "raw-space through the feature index", probes: rawProbes},
		{name: "neither gallery- nor raw-sized", probes: randomGroup(303, 10, 3), wantDim: true},
		{name: "raw vector shorter than the largest index", probes: randomGroup(304, 20, 3), wantDim: true},
		{name: "zero columns", probes: linalg.NewMatrix(len(index), 0), wantErr: true},
	} {
		// The gallery wrapped as one shard answers first; its scores are
		// the reference the other engines must reproduce bit for bit.
		var ref [][]gallery.Candidate
		var refDense *linalg.Matrix
		for _, en := range engines {
			ctx := context.Background()
			ranked, err := en.e.QueryAllCtx(ctx, tc.probes, k, 1)
			dense, _, derr := en.e.DenseSimilarityCtx(ctx, tc.probes, 1)
			var single []gallery.Candidate
			serr := err
			if _, cols := tc.probes.Dims(); cols > 0 {
				single, serr = en.e.TopKCtx(ctx, tc.probes.Col(0), k, 1)
			}
			switch {
			case tc.wantDim:
				for _, e := range []error{err, derr, serr} {
					if !errors.Is(e, gallery.ErrDimMismatch) {
						t.Fatalf("%s/%s: got %v, want ErrDimMismatch", tc.name, en.name, e)
					}
				}
				continue
			case tc.wantErr:
				if err == nil || derr == nil || errors.Is(err, gallery.ErrDimMismatch) {
					t.Fatalf("%s/%s: QueryAll = %v, Dense = %v, want a non-dimension error", tc.name, en.name, err, derr)
				}
				continue
			}
			if err != nil || derr != nil || serr != nil {
				t.Fatalf("%s/%s: QueryAll = %v, Dense = %v, TopK = %v", tc.name, en.name, err, derr, serr)
			}
			if ref == nil {
				ref, refDense = ranked, dense
			}
			for j := range ref {
				for r := range ref[j] {
					if ranked[j][r].ID != ref[j][r].ID || ranked[j][r].Score != ref[j][r].Score {
						t.Fatalf("%s/%s probe %d rank %d: %+v != gallery %+v", tc.name, en.name, j, r, ranked[j][r], ref[j][r])
					}
				}
			}
			for r := range single {
				if single[r].ID != ref[0][r].ID || single[r].Score != ref[0][r].Score {
					t.Fatalf("%s/%s: TopK rank %d %+v != QueryAll %+v", tc.name, en.name, r, single[r], ref[0][r])
				}
			}
			for i := 0; i < subjects; i++ {
				row := g.Index(en.e.ID(i))
				for j := 0; j < 3; j++ {
					if dense.At(i, j) != refDense.At(row, j) {
						t.Fatalf("%s/%s: dense (%d,%d) = %v != gallery %v", tc.name, en.name, i, j, dense.At(i, j), refDense.At(row, j))
					}
				}
			}
		}
	}

	// k is validated the same way everywhere: non-positive rejected,
	// oversized clamped to the engine.
	for _, en := range engines {
		if _, err := en.e.TopKCtx(context.Background(), rawProbes.Col(0), 0, 1); err == nil {
			t.Fatalf("%s: TopK(k=0) succeeded", en.name)
		}
		top, err := en.e.TopKCtx(context.Background(), rawProbes.Col(0), 99, 1)
		if err != nil || len(top) != subjects {
			t.Fatalf("%s: TopK(k=99) = %d candidates, %v; want %d", en.name, len(top), err, subjects)
		}
	}
}
