package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/ivf"
	"brainprint/internal/linalg"
)

// buildANN trains and attaches an index, failing the test on error.
func buildANN(t testing.TB, s *Store, cells int, seed int64) {
	t.Helper()
	if err := s.BuildANN(context.Background(), cells, seed, 0); err != nil {
		t.Fatalf("BuildANN: %v", err)
	}
}

// TestIVFExactWhenProbeCoversAllCells is the ANN acceptance property:
// with nprobe ≥ the cell count the posting lists partition every shard,
// the candidate set equals the full record set, and the IVF scan must
// return bit-identical candidates to the exact path at EVERY shard
// count and parallelism setting — same IDs, same scores, same order.
func TestIVFExactWhenProbeCoversAllCells(t *testing.T) {
	const features, subjects, k, cells = 100, 1000, 10, 16
	known := randomGroup(101, features, subjects)
	anon := noisyProbes(known, 102)
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	wantRanked, _ := exactRanked(t, g, anon, k)
	for _, shards := range []int{1, 4, 7} {
		s, err := FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("FromGallery(%d): %v", shards, err)
		}
		buildANN(t, s, cells, 7)
		// nprobe beyond the cell count clamps, so an oversized fan-out
		// is exactly the full-coverage case too.
		for _, nprobe := range []int{cells, cells + 100} {
			if err := s.SetANNProbe(nprobe); err != nil {
				t.Fatalf("SetANNProbe(%d): %v", nprobe, err)
			}
			for _, par := range []int{1, 0, 3} {
				name := fmt.Sprintf("shards=%d nprobe=%d par=%d", shards, nprobe, par)
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
					}
				}
				single, err := s.TopKCtx(context.Background(), anon.Col(0), k, par)
				if err != nil {
					t.Fatalf("%s: TopK: %v", name, err)
				}
				for r := range single {
					if single[r] != ranked[0][r] {
						t.Fatalf("%s: TopK and QueryAll disagree at rank %d", name, r)
					}
				}
			}
		}
	}
}

// TestIVFSidecarRoundTripThroughOpen: SaveANN writes the sidecar next
// to the manifest and Open picks it up automatically, yielding the
// same bit-identical-at-full-coverage behavior as the in-memory index.
func TestIVFSidecarRoundTripThroughOpen(t *testing.T) {
	const features, subjects, k, cells = 40, 300, 7, 8
	g := buildGallery(t, 121, features, subjects)
	src, err := FromGallery(g, 3, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "g.bpm")
	if err := src.WriteFiles(manifest); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	if src.HasANNIndex() {
		t.Fatal("fresh store reports an ANN index")
	}
	if err := src.SaveANN(manifest); !errors.Is(err, ErrNoANNIndex) {
		t.Fatalf("SaveANN without an index = %v, want ErrNoANNIndex", err)
	}
	buildANN(t, src, cells, 3)
	if err := src.SaveANN(manifest); err != nil {
		t.Fatalf("SaveANN: %v", err)
	}
	if _, err := os.Stat(ivf.SidecarPath(manifest)); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}

	s, err := Open(manifest)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !s.HasANNIndex() {
		t.Fatal("reopened store did not load the ANN sidecar")
	}
	if s.ANNProbe() != 0 {
		t.Fatalf("reopened store has nprobe %d, want 0 (exact until opted in)", s.ANNProbe())
	}
	probe := randomGroup(122, features, 1).Col(0)
	want, err := s.TopKCtx(context.Background(), probe, k, 1) // nprobe 0: exact
	if err != nil {
		t.Fatalf("exact TopK: %v", err)
	}
	if err := s.SetANNProbe(cells); err != nil {
		t.Fatalf("SetANNProbe: %v", err)
	}
	got, err := s.TopKCtx(context.Background(), probe, k, 1)
	if err != nil {
		t.Fatalf("IVF TopK: %v", err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("rank %d: reopened IVF %+v != exact %+v", r, got[r], want[r])
		}
	}
}

// TestIVFStaleSidecarSilentlyIgnored: a sidecar whose geometry no
// longer matches the store (here: the store was rewritten with a
// different cohort size) must be skipped without error — the store
// opens exact, not degraded.
func TestIVFStaleSidecarSilentlyIgnored(t *testing.T) {
	const features = 24
	dir := t.TempDir()
	manifest := filepath.Join(dir, "g.bpm")
	old, err := FromGallery(buildGallery(t, 131, features, 200), 2, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	if err := old.WriteFiles(manifest); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	buildANN(t, old, 8, 1)
	if err := old.SaveANN(manifest); err != nil {
		t.Fatalf("SaveANN: %v", err)
	}
	// Rewrite the store in place with a different cohort; the sidecar
	// on disk now describes records that no longer exist.
	fresh, err := FromGallery(buildGallery(t, 132, features, 150), 2, false)
	if err != nil {
		t.Fatalf("FromGallery (fresh): %v", err)
	}
	if err := fresh.WriteFiles(manifest); err != nil {
		t.Fatalf("WriteFiles (fresh): %v", err)
	}
	s, err := Open(manifest)
	if err != nil {
		t.Fatalf("Open with a stale sidecar failed: %v", err)
	}
	if s.HasANNIndex() {
		t.Fatal("stale sidecar was attached to a mismatched store")
	}
	if err := s.SetANNProbe(4); !errors.Is(err, ErrNoANNIndex) {
		t.Fatalf("SetANNProbe on indexless store = %v, want ErrNoANNIndex", err)
	}
}

// TestIVFCorruptSidecarFailsOpen: unlike a stale sidecar, a CORRUPT
// sidecar is a storage fault and must fail Open loudly rather than be
// silently dropped.
func TestIVFCorruptSidecarFailsOpen(t *testing.T) {
	const features = 24
	dir := t.TempDir()
	manifest := filepath.Join(dir, "g.bpm")
	s, err := FromGallery(buildGallery(t, 141, features, 100), 2, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	if err := s.WriteFiles(manifest); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	buildANN(t, s, 8, 1)
	if err := s.SaveANN(manifest); err != nil {
		t.Fatalf("SaveANN: %v", err)
	}
	side := ivf.SidecarPath(manifest)
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(side, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := Open(manifest); err == nil {
		t.Fatal("Open with a corrupt sidecar succeeded")
	}
}

// TestSetANNProbeValidation covers the knob's error paths and the
// degraded-store training refusal.
func TestSetANNProbeValidation(t *testing.T) {
	g := buildGallery(t, 151, 16, 60)
	s, err := FromGallery(g, 2, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	if err := s.SetANNProbe(-1); err == nil {
		t.Fatal("SetANNProbe(-1) succeeded")
	}
	if err := s.SetANNProbe(4); !errors.Is(err, ErrNoANNIndex) {
		t.Fatalf("SetANNProbe before BuildANN = %v, want ErrNoANNIndex", err)
	}
	if err := s.SetANNProbe(0); err != nil {
		t.Fatalf("SetANNProbe(0) without an index: %v (0 is always legal)", err)
	}
	buildANN(t, s, 4, 1)
	if err := s.SetANNProbe(2); err != nil {
		t.Fatalf("SetANNProbe(2): %v", err)
	}
	if s.ANNProbe() != 2 || !s.HasANNIndex() {
		t.Fatalf("ANNProbe=%d HasANNIndex=%v, want 2/true", s.ANNProbe(), s.HasANNIndex())
	}
	if err := s.SetANNProbe(0); err != nil || s.ANNProbe() != 0 {
		t.Fatalf("SetANNProbe(0) = %v, ANNProbe=%d", err, s.ANNProbe())
	}
}

// TestTrainANNRefusesDegradedStore: a store opened with missing shards
// must refuse to train (the index would silently omit the faulted
// records), and a sidecar on disk is NOT attached to a degraded open.
func TestTrainANNRefusesDegradedStore(t *testing.T) {
	const features = 16
	dir := t.TempDir()
	manifest := filepath.Join(dir, "g.bpm")
	src, err := FromGallery(buildGallery(t, 161, features, 80), 4, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	if err := src.WriteFiles(manifest); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	buildANN(t, src, 4, 1)
	if err := src.SaveANN(manifest); err != nil {
		t.Fatalf("SaveANN: %v", err)
	}
	// Knock out one shard file; the store opens degraded.
	matches, err := filepath.Glob(filepath.Join(dir, "*.s001.*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("locating shard file: %v (matches %v)", err, matches)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	s, err := Open(manifest)
	var pe *PartialError
	if !errors.As(err, &pe) || s == nil {
		t.Fatalf("degraded Open: err=%v store=%v, want PartialError + usable store", err, s != nil)
	}
	if s.LoadedShards() == s.Shards() {
		t.Fatal("store did not open degraded")
	}
	if s.HasANNIndex() {
		t.Fatal("sidecar attached to a degraded store")
	}
	if _, err := s.TrainANN(context.Background(), 4, 1, 0); err == nil {
		t.Fatal("TrainANN on a degraded store succeeded")
	}
}

// clusteredCohort builds the recall-gate population: nClusters tight
// Gaussian clusters (member = center + spread·noise). Cluster structure
// is what makes a coarse quantizer meaningful — on isotropic data the
// true neighbors of a probe spread across many cells and no sub-linear
// index can hit high recall at a narrow fan-out.
func clusteredCohort(seed int64, features, subjects, nClusters int, spread float64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, nClusters)
	for c := range centers {
		centers[c] = make([]float64, features)
		for f := range centers[c] {
			centers[c][f] = rng.NormFloat64()
		}
	}
	m := linalg.NewMatrix(features, subjects)
	col := make([]float64, features)
	for j := 0; j < subjects; j++ {
		center := centers[j%nClusters]
		for f := range col {
			col[f] = center[f] + spread*rng.NormFloat64()
		}
		m.SetCol(j, col)
	}
	return m
}

// recallAt returns the mean fraction of exact top-k subjects the IVF
// top-k recovered, over all probes. An IVF list shorter than k (its
// probed cells held fewer records) counts its missing ranks as misses.
func recallAt(exact, approx [][]gallery.Candidate, k int) float64 {
	sum := 0.0
	for j := range exact {
		want := map[string]bool{}
		for _, c := range exact[j][:k] {
			want[c.ID] = true
		}
		hit := 0
		for _, c := range approx[j][:min(k, len(approx[j]))] {
			if want[c.ID] {
				hit++
			}
		}
		sum += float64(hit) / float64(k)
	}
	return sum / float64(len(exact))
}

// TestIVFRecallCurve is the CI recall gate (the bench job runs it by
// name): a 10k clustered cohort, IVF TopK at nprobe ∈ {1, 4, 16}
// against the exact scan, recall@{1, 10, 100} per fan-out. The gate
// fails the build if recall@10 at the default nprobe drops below 0.99.
// When RECALL_OUT is set the full curve is written there as the CI
// artifact (RECALL_pr7.json).
func TestIVFRecallCurve(t *testing.T) {
	const (
		features  = 100
		subjects  = 10_000
		nClusters = 200
		probes    = 48
		kMax      = 100
		floor     = 0.99
	)
	known := clusteredCohort(171, features, subjects, nClusters, 0.25)
	// Probes are noisy variants of enrolled subjects, striding the
	// cohort so every region of the cluster structure is exercised.
	rng := rand.New(rand.NewSource(172))
	anon := linalg.NewMatrix(features, probes)
	col := make([]float64, features)
	for j := 0; j < probes; j++ {
		src := known.Col((j * 157) % subjects)
		for f := range col {
			col[f] = src[f] + 0.15*rng.NormFloat64()
		}
		anon.SetCol(j, col)
	}
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	s, err := FromGallery(g, 8, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	exact, err := s.QueryAllCtx(context.Background(), anon, kMax, 0)
	if err != nil {
		t.Fatalf("exact QueryAll: %v", err)
	}
	buildANN(t, s, 0, 1) // DefaultCells(10k) = 100 cells
	cells := s.ANNIndex().Cells()

	type point struct {
		NProbe int     `json:"nprobe"`
		R1     float64 `json:"recall_at_1"`
		R10    float64 `json:"recall_at_10"`
		R100   float64 `json:"recall_at_100"`
	}
	var curve []point
	var gateR10 float64
	for _, nprobe := range []int{1, 4, ivf.DefaultNProbe} {
		if err := s.SetANNProbe(nprobe); err != nil {
			t.Fatalf("SetANNProbe(%d): %v", nprobe, err)
		}
		approx, err := s.QueryAllCtx(context.Background(), anon, kMax, 0)
		if err != nil {
			t.Fatalf("IVF QueryAll(nprobe=%d): %v", nprobe, err)
		}
		// The exactness half of the contract, on every fan-out: any
		// returned candidate carries the exact score the dense path
		// computed for that same subject.
		exactScore := map[string]float64{}
		for j := range exact {
			for _, c := range exact[j] {
				exactScore[fmt.Sprintf("%d/%s", j, c.ID)] = c.Score
			}
		}
		for j := range approx {
			for _, c := range approx[j] {
				if want, ok := exactScore[fmt.Sprintf("%d/%s", j, c.ID)]; ok && c.Score != want {
					t.Fatalf("nprobe=%d probe %d subject %s: score %v != exact %v (not bit-identical)",
						nprobe, j, c.ID, c.Score, want)
				}
			}
		}
		p := point{
			NProbe: nprobe,
			R1:     recallAt(exact, approx, 1),
			R10:    recallAt(exact, approx, 10),
			R100:   recallAt(exact, approx, kMax),
		}
		curve = append(curve, p)
		t.Logf("nprobe=%-3d recall@1=%.4f recall@10=%.4f recall@100=%.4f", p.NProbe, p.R1, p.R10, p.R100)
		if nprobe == ivf.DefaultNProbe {
			gateR10 = p.R10
		}
	}
	if out := os.Getenv("RECALL_OUT"); out != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"subjects":      subjects,
			"features":      features,
			"clusters":      nClusters,
			"cells":         cells,
			"probes":        probes,
			"default_probe": ivf.DefaultNProbe,
			"floor":         floor,
			"curve":         curve,
		}, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
	}
	if gateR10 < floor {
		t.Fatalf("recall@10 at nprobe=%d is %.4f, below the %.2f gate", ivf.DefaultNProbe, gateR10, floor)
	}
}
