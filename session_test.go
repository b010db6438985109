package brainprint_test

// Facade tests for the session API (session.go): the Attacker exports,
// the experiment registry surface, and the typed gallery errors.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"brainprint"
)

// sessionFixture builds a one-shard gallery store + probes through the
// public API.
func sessionFixture(t *testing.T) (*brainprint.GalleryStore, *brainprint.Matrix, []string) {
	t.Helper()
	c := facadeCohort(t)
	knownScans, err := c.ScansFor(brainprint.Rest1, brainprint.LR)
	if err != nil {
		t.Fatalf("ScansFor: %v", err)
	}
	known, err := brainprint.GroupMatrix(knownScans, brainprint.ConnectomeOptions{})
	if err != nil {
		t.Fatalf("GroupMatrix: %v", err)
	}
	cfg := brainprint.DefaultAttackConfig()
	cfg.Features = 60
	fps, idx, err := brainprint.Fingerprints(known, cfg)
	if err != nil {
		t.Fatalf("Fingerprints: %v", err)
	}
	g := brainprint.NewGalleryIndexed(idx)
	ids := make([]string, fps.Cols())
	for i := range ids {
		ids[i] = fmt.Sprintf("hcp-s%03d", i)
	}
	if err := g.EnrollMatrix(ids, fps); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	store, err := brainprint.NewGalleryStore(g, 1)
	if err != nil {
		t.Fatalf("NewGalleryStore: %v", err)
	}
	anonScans, err := c.ScansFor(brainprint.Rest2, brainprint.RL)
	if err != nil {
		t.Fatalf("ScansFor: %v", err)
	}
	anon, err := brainprint.GroupMatrixCtx(context.Background(), anonScans, brainprint.ConnectomeOptions{})
	if err != nil {
		t.Fatalf("GroupMatrixCtx: %v", err)
	}
	return store, anon, ids
}

// TestFacadeAttackerFlow drives the session API end to end exactly as
// the README documents it.
func TestFacadeAttackerFlow(t *testing.T) {
	g, anon, ids := sessionFixture(t)
	atk, err := brainprint.NewAttacker(g,
		brainprint.WithTopK(3),
		brainprint.WithParallelism(2),
		brainprint.WithAssignment(true))
	if err != nil {
		t.Fatalf("NewAttacker: %v", err)
	}
	ctx := context.Background()

	top, err := atk.Identify(ctx, anon.Col(0))
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	if len(top) != 3 {
		t.Fatalf("Identify returned %d candidates, want 3", len(top))
	}

	batch, err := atk.IdentifyBatch(ctx, anon)
	if err != nil {
		t.Fatalf("IdentifyBatch: %v", err)
	}
	if len(batch.Ranked) != len(ids) || len(batch.Assignment) != len(ids) {
		t.Fatalf("batch shape: %d ranked, %d assigned", len(batch.Ranked), len(batch.Assignment))
	}
	// Single-probe and batch engines must agree candidate for candidate.
	for r := range top {
		if top[r] != batch.Ranked[0][r] {
			t.Errorf("rank %d: Identify %+v != IdentifyBatch %+v", r, top[r], batch.Ranked[0][r])
		}
	}

	// Stream a couple of probes.
	in := make(chan brainprint.Probe, 2)
	in <- brainprint.Probe{ID: "a", Vector: anon.Col(0)}
	in <- brainprint.Probe{ID: "b", Vector: anon.Col(1)}
	close(in)
	seen := 0
	for r := range atk.IdentifyStream(ctx, in) {
		if r.Err != nil {
			t.Fatalf("stream %s: %v", r.Probe.ID, r.Err)
		}
		seen++
	}
	if seen != 2 {
		t.Errorf("stream returned %d results", seen)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	names := brainprint.ExperimentNames()
	if len(names) != len(brainprint.Experiments()) {
		t.Fatal("registry surfaces disagree")
	}
	found := false
	for _, n := range names {
		if n == "defense" {
			found = true
		}
		if _, ok := brainprint.LookupExperiment(n); !ok {
			t.Errorf("LookupExperiment(%q) failed", n)
		}
	}
	if !found {
		t.Error("defense missing from the registry")
	}
	c := facadeCohort(t)
	cfg := brainprint.DefaultAttackConfig()
	cfg.Features = 60
	res, err := brainprint.RunExperiment(context.Background(), "fig1", cfg, brainprint.ExperimentInput{HCP: c})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if res.Render() == "" {
		t.Error("empty rendering")
	}
}

// TestFacadeTypedGalleryErrors pins the errors.Is contract of the
// re-exported error values — no internal import needed.
func TestFacadeTypedGalleryErrors(t *testing.T) {
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad.bpg")
	if err := os.WriteFile(bad, []byte("definitely not a gallery file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := brainprint.OpenGallery(bad); !errors.Is(err, brainprint.ErrGalleryBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	g := brainprint.NewGallery(4)
	if err := g.Enroll("s0", []float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := g.Enroll("s0", []float64{4, 3, 2, 1}); !errors.Is(err, brainprint.ErrGalleryDuplicateID) {
		t.Errorf("duplicate id: %v", err)
	}
	if err := g.Enroll("s1", []float64{1, 2}); !errors.Is(err, brainprint.ErrGalleryDimMismatch) {
		t.Errorf("dim mismatch: %v", err)
	}

	path := filepath.Join(dir, "ok.bpg")
	if err := g.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record.
	trunc := filepath.Join(dir, "trunc.bpg")
	if err := os.WriteFile(trunc, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := brainprint.OpenGallery(trunc); !errors.Is(err, brainprint.ErrGalleryTruncated) {
		t.Errorf("truncated: %v", err)
	}
	// Flip a fingerprint byte → record checksum failure.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-10] ^= 0xff
	cpath := filepath.Join(dir, "corrupt.bpg")
	if err := os.WriteFile(cpath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := brainprint.OpenGallery(cpath); !errors.Is(err, brainprint.ErrGalleryChecksum) {
		t.Errorf("checksum: %v", err)
	}
	// Bump the version field (bytes 8..11) and refresh nothing — the
	// version check fires before the header CRC.
	vers := append([]byte(nil), raw...)
	vers[8] = 99
	vpath := filepath.Join(dir, "version.bpg")
	if err := os.WriteFile(vpath, vers, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := brainprint.OpenGallery(vpath); !errors.Is(err, brainprint.ErrGalleryVersion) {
		t.Errorf("version: %v", err)
	}
}

// TestFacadeCancellation: a cancelled context aborts the session's
// identification calls.
func TestFacadeCancellation(t *testing.T) {
	g, anon, _ := sessionFixture(t)
	atk, err := brainprint.NewAttacker(g)
	if err != nil {
		t.Fatalf("NewAttacker: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := atk.Identify(ctx, anon.Col(0)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Identify: %v", err)
	}
	if _, err := atk.IdentifyBatch(ctx, anon); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled IdentifyBatch: %v", err)
	}
}
