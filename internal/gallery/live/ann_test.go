package live

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/ivf"
	"brainprint/internal/gallery/shard"
)

// TestLiveANNLifecycle walks the index through the whole live-engine
// story: build over the base, query bit-identically at full coverage,
// stay exact for overlay enrollments, survive a compaction (rebuilt
// over the folded base, same seed, nprobe preserved), and reload from
// the sidecar on reopen.
func TestLiveANNLifecycle(t *testing.T) {
	const features, subjects, k, cells = 40, 400, 7, 8
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), randomGroup(201, features, subjects)); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	src, err := shard.FromGallery(g, 4, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "live")
	e, err := CreateFromStore(dir, src, Options{NoSync: true})
	if err != nil {
		t.Fatalf("CreateFromStore: %v", err)
	}
	defer e.Close()
	ctx := context.Background()

	// Knob validation before any index exists.
	if e.HasANNIndex() {
		t.Fatal("fresh engine reports an ANN index")
	}
	if err := e.SetANNProbe(-1); err == nil {
		t.Fatal("SetANNProbe(-1) succeeded")
	}
	if err := e.SetANNProbe(4); !errors.Is(err, shard.ErrNoANNIndex) {
		t.Fatalf("SetANNProbe before BuildANN = %v, want ErrNoANNIndex", err)
	}
	if err := e.SetANNProbe(0); err != nil {
		t.Fatalf("SetANNProbe(0): %v", err)
	}

	if err := e.BuildANN(ctx, cells, 7, 0); err != nil {
		t.Fatalf("BuildANN: %v", err)
	}
	if !e.HasANNIndex() {
		t.Fatal("HasANNIndex false after BuildANN")
	}
	side := filepath.Join(dir, "live.g0000.bpm.ivf")
	if _, err := os.Stat(side); err != nil {
		t.Fatalf("generation-0 sidecar not written: %v", err)
	}

	// Full coverage ⇒ bit-identical to the exact sweep.
	probes := randomGroup(202, features, 6)
	assertSame := func(stage string) {
		t.Helper()
		if err := e.SetANNProbe(0); err != nil {
			t.Fatalf("%s: SetANNProbe(0): %v", stage, err)
		}
		want, err := e.QueryAllCtx(context.Background(), probes, k, 0)
		if err != nil {
			t.Fatalf("%s: exact QueryAll: %v", stage, err)
		}
		// Oversized fan-out clamps to the cell count, so this is full
		// coverage whatever geometry the current index has (the
		// compaction rebuild re-derives its own default cell count).
		if err := e.SetANNProbe(4096); err != nil {
			t.Fatalf("%s: SetANNProbe(4096): %v", stage, err)
		}
		got, err := e.QueryAllCtx(context.Background(), probes, k, 0)
		if err != nil {
			t.Fatalf("%s: IVF QueryAll: %v", stage, err)
		}
		for j := range want {
			for r := range want[j] {
				if got[j][r].ID != want[j][r].ID || got[j][r].Score != want[j][r].Score {
					t.Fatalf("%s probe %d rank %d: IVF (%s, %v) != exact (%s, %v)",
						stage, j, r, got[j][r].ID, got[j][r].Score, want[j][r].ID, want[j][r].Score)
				}
			}
		}
	}
	assertSame("generation 0")

	// Overlay enrollments are scanned exactly regardless of nprobe: a
	// brand-new subject must be its own top-1 even though the base
	// index has never seen it.
	extra := randomGroup(203, features, 3)
	for j := 0; j < 3; j++ {
		if err := e.Enroll(subjectIDs(subjects + 3)[subjects+j], extra.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.SetANNProbe(2); err != nil { // deliberately narrow
		t.Fatalf("SetANNProbe(2): %v", err)
	}
	top, err := e.TopKCtx(context.Background(), extra.Col(1), 1, 0)
	if err != nil {
		t.Fatalf("overlay TopK: %v", err)
	}
	if wantID := subjectIDs(subjects + 3)[subjects+1]; top[0].ID != wantID {
		t.Fatalf("overlay subject not found through the ANN path: top-1 %s, want %s", top[0].ID, wantID)
	}
	assertSame("generation 0 + overlay")

	// Compaction folds the overlay and rebuilds the index over the new
	// base with the SAME seed; the engine's nprobe survives the swap.
	if err := e.SetANNProbe(cells); err != nil {
		t.Fatalf("SetANNProbe: %v", err)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if gen := e.Stats().Generation; gen != 1 {
		t.Fatalf("generation %d after compact, want 1", gen)
	}
	if !e.HasANNIndex() {
		t.Fatal("index lost across compaction")
	}
	if e.ANNProbe() != cells {
		t.Fatalf("nprobe %d after compact, want %d", e.ANNProbe(), cells)
	}
	newSide := filepath.Join(dir, "live.g0001.bpm.ivf")
	x, err := ivf.ReadFile(newSide)
	if err != nil {
		t.Fatalf("generation-1 sidecar: %v", err)
	}
	if x.Seed() != 7 {
		t.Fatalf("rebuilt index seed %d, want the original 7", x.Seed())
	}
	if _, err := os.Stat(side); !os.IsNotExist(err) {
		t.Fatalf("generation-0 sidecar not removed with its generation: %v", err)
	}
	assertSame("generation 1")

	// Reopen: the base store auto-loads the generation sidecar; the
	// nprobe knob (session state) resets to exact.
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if !re.HasANNIndex() {
		t.Fatal("reopened engine did not load the ANN sidecar")
	}
	if re.ANNProbe() != 0 {
		t.Fatalf("reopened engine nprobe %d, want 0", re.ANNProbe())
	}
	e = re
	assertSame("reopened")
}

// TestLiveBuildANNRequiresBase: an engine created empty (no base
// generation) cannot train until a compaction materializes one.
func TestLiveBuildANNRequiresBase(t *testing.T) {
	const features = 16
	e := createEngine(t, features, Options{})
	group := randomGroup(211, features, 30)
	for j, id := range subjectIDs(30) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.BuildANN(context.Background(), 4, 1, 0); err == nil {
		t.Fatal("BuildANN with no base store succeeded")
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := e.BuildANN(context.Background(), 4, 1, 0); err != nil {
		t.Fatalf("BuildANN after compact: %v", err)
	}
	if !e.HasANNIndex() {
		t.Fatal("HasANNIndex false after BuildANN")
	}
}
