package attacker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/sampling"
)

// randGroup builds a deterministic features×subjects matrix.
func randGroup(features, subjects int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(features, subjects)
	raw := m.RawData()
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	return m
}

// leverageFeatures picks the k highest-leverage features (rows) of a
// known group, the paper's principal-features selection.
func leverageFeatures(t *testing.T, known *linalg.Matrix, k int) []int {
	t.Helper()
	p, err := sampling.Probabilities(known, sampling.Leverage)
	if err != nil {
		t.Fatalf("Probabilities: %v", err)
	}
	idx, err := sampling.TopK(p, k)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	return idx
}

// testSession enrolls the leverage fingerprints of a random known group
// and returns the session plus the known and probe groups (raw space).
func testSession(t *testing.T, topK int, opts ...Option) (*Attacker, *linalg.Matrix, *linalg.Matrix) {
	t.Helper()
	known := randGroup(400, 24, 1)
	// Correlated probes: known plus noise, so ranking is nontrivial.
	probes := randGroup(400, 24, 2)
	kraw := known.RawData()
	praw := probes.RawData()
	for i := range praw {
		praw[i] = kraw[i] + 0.5*praw[i]
	}
	idx := leverageFeatures(t, known, 80)
	fps := known.SelectRows(idx)
	g := gallery.WithFeatureIndex(idx)
	ids := make([]string, fps.Cols())
	for i := range ids {
		ids[i] = fmt.Sprintf("s%03d", i)
	}
	if err := g.EnrollMatrix(ids, fps); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	a, err := New(shard.Wrap(g), append([]Option{WithTopK(topK)}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a, known, probes
}

// TestIdentifyBatchBitIdentical is the acceptance check of the session
// redesign: IdentifyBatch scores must equal the engine's QueryAll and the
// corresponding entries of match.SimilarityMatrix bit for bit, at every
// parallelism setting.
func TestIdentifyBatchBitIdentical(t *testing.T) {
	a, known, probes := testSession(t, 3)

	// Reference 1: the dense similarity matrix of the attack on the
	// gallery's reduced feature space, and its argmax predictions.
	idx := a.Gallery().FeatureIndex()
	sim, err := match.SimilarityMatrix(known.SelectRows(idx), probes.SelectRows(idx))
	if err != nil {
		t.Fatalf("SimilarityMatrix: %v", err)
	}
	predictions := match.Predict(sim)

	// Reference 2: the session's query engine.
	wantRanked, err := a.Gallery().QueryAllCtx(context.Background(), probes, 3, 0)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}

	for _, parallelism := range []int{1, 0, 3} {
		s, err := New(a.Gallery(), WithTopK(3), WithParallelism(parallelism))
		if err != nil {
			t.Fatalf("New(parallelism=%d): %v", parallelism, err)
		}
		batch, err := s.IdentifyBatch(context.Background(), probes)
		if err != nil {
			t.Fatalf("IdentifyBatch(parallelism=%d): %v", parallelism, err)
		}
		if len(batch.Ranked) != len(wantRanked) {
			t.Fatalf("parallelism=%d: %d probes, want %d", parallelism, len(batch.Ranked), len(wantRanked))
		}
		for j, top := range batch.Ranked {
			for r, cand := range top {
				if want := wantRanked[j][r]; cand != want {
					t.Fatalf("parallelism=%d probe %d rank %d: %+v != QueryAll %+v", parallelism, j, r, cand, want)
				}
				if want := sim.At(cand.Index, j); cand.Score != want {
					t.Fatalf("parallelism=%d probe %d rank %d: score %v != SimilarityMatrix %v (not bit-identical)",
						parallelism, j, r, cand.Score, want)
				}
			}
			if top[0].Index != predictions[j] {
				t.Fatalf("parallelism=%d probe %d: argmax %d != dense attack prediction %d",
					parallelism, j, top[0].Index, predictions[j])
			}
		}
	}
}

func TestIdentifySingleProbe(t *testing.T) {
	a, _, probes := testSession(t, 5)
	top, err := a.Identify(context.Background(), probes.Col(7))
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d candidates, want 5", len(top))
	}
	// Must agree with the batch engine for the same probe.
	batch, err := a.IdentifyBatch(context.Background(), probes)
	if err != nil {
		t.Fatalf("IdentifyBatch: %v", err)
	}
	for r := range top {
		if top[r] != batch.Ranked[7][r] {
			t.Fatalf("rank %d: single %+v != batch %+v", r, top[r], batch.Ranked[7][r])
		}
	}
}

func TestIdentifyStream(t *testing.T) {
	a, _, probes := testSession(t, 2, WithParallelism(3))
	_, n := probes.Dims()
	in := make(chan Probe)
	go func() {
		defer close(in)
		for j := 0; j < n; j++ {
			in <- Probe{ID: fmt.Sprintf("probe-%02d", j), Vector: probes.Col(j)}
		}
	}()
	got := map[string][]gallery.Candidate{}
	for r := range a.IdentifyStream(context.Background(), in) {
		if r.Err != nil {
			t.Fatalf("stream result %s: %v", r.Probe.ID, r.Err)
		}
		got[r.Probe.ID] = r.Candidates
	}
	if len(got) != n {
		t.Fatalf("stream returned %d results, want %d", len(got), n)
	}
	for j := 0; j < n; j++ {
		want, err := a.Identify(context.Background(), probes.Col(j))
		if err != nil {
			t.Fatalf("Identify: %v", err)
		}
		id := fmt.Sprintf("probe-%02d", j)
		for r := range want {
			if got[id][r] != want[r] {
				t.Fatalf("%s rank %d: stream %+v != Identify %+v", id, r, got[id][r], want[r])
			}
		}
	}
}

func TestIdentifyStreamCancel(t *testing.T) {
	a, _, probes := testSession(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Probe) // never closed: only cancellation can end the stream
	out := a.IdentifyStream(ctx, in)
	in <- Probe{ID: "p0", Vector: probes.Col(0)}
	<-out
	cancel()
	start := time.Now()
	for range out { // must drain and close promptly, not deadlock
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stream took %v to close after cancel", elapsed)
	}
}

func TestAssignment(t *testing.T) {
	a, _, probes := testSession(t, 1, WithAssignment(true), WithTopK(3))
	batch, err := a.IdentifyBatch(context.Background(), probes)
	if err != nil {
		t.Fatalf("IdentifyBatch: %v", err)
	}
	// The assignment path derives rankings from the dense matrix; they
	// must be identical to the query engine's.
	wantRanked, err := a.Gallery().QueryAllCtx(context.Background(), probes, 3, 0)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	for j := range wantRanked {
		for r := range wantRanked[j] {
			if batch.Ranked[j][r] != wantRanked[j][r] {
				t.Fatalf("probe %d rank %d: dense-derived %+v != QueryAll %+v",
					j, r, batch.Ranked[j][r], wantRanked[j][r])
			}
		}
	}
	_, n := probes.Dims()
	if len(batch.Assignment) != n {
		t.Fatalf("assignment length %d, want %d", len(batch.Assignment), n)
	}
	seen := make([]bool, n)
	for _, idx := range batch.Assignment {
		if idx < 0 || idx >= n || seen[idx] {
			t.Fatalf("assignment %v is not a permutation", batch.Assignment)
		}
		seen[idx] = true
	}
	// The bijection must reproduce the Hungarian run on the dense
	// similarity matrix.
	sim, _, err := a.Gallery().DenseSimilarityCtx(context.Background(), probes, 0)
	if err != nil {
		t.Fatalf("DenseSimilarity: %v", err)
	}
	want, err := match.AssignmentMatch(sim)
	if err != nil {
		t.Fatalf("AssignmentMatch: %v", err)
	}
	for j := range want {
		if batch.Assignment[j] != want[j] {
			t.Fatalf("assignment[%d] = %d, want %d", j, batch.Assignment[j], want[j])
		}
	}
}

// TestAssignmentKeepsTieOrder pins one ranking order across request
// shapes: on a store whose canonical order is not its ID order, exact
// score ties must come back in the same (ID) order whether or not the
// batch also asks for the assignment.
func TestAssignmentKeepsTieOrder(t *testing.T) {
	const features = 16
	twin := randGroup(features, 1, 41).Col(0)
	g := gallery.New(features)
	for _, id := range []string{"zz", "aa", "mm"} {
		if err := g.Enroll(id, twin); err != nil {
			t.Fatalf("Enroll(%q): %v", id, err)
		}
	}
	a, err := New(shard.Wrap(g))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	probes := randGroup(features, 3, 42)
	plain, err := a.IdentifyBatchTopK(context.Background(), probes, 3, false)
	if err != nil {
		t.Fatalf("IdentifyBatchTopK: %v", err)
	}
	assigned, err := a.IdentifyBatchTopK(context.Background(), probes, 3, true)
	if err != nil {
		t.Fatalf("IdentifyBatchTopK(assignment): %v", err)
	}
	for j, want := range plain.Ranked {
		if got := assigned.Ranked[j]; !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %d: assignment ranks %+v, plain ranks %+v", j, got, want)
		}
		var ids []string
		for _, c := range want {
			ids = append(ids, c.ID)
		}
		if fmt.Sprint(ids) != "[aa mm zz]" {
			t.Fatalf("probe %d: ties ranked %v, want [aa mm zz]", j, ids)
		}
	}
}

// deleteAfterDense is a live engine whose DenseSimilarityCtx deletes a
// record once the inner sweep has returned: the window in which a
// concurrent Delete lands between the scan and the row labelling.
type deleteAfterDense struct {
	gallery.Mutable
	victim string
}

func (e *deleteAfterDense) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, []string, error) {
	sim, ids, err := e.Mutable.DenseSimilarityCtx(ctx, probes, parallelism)
	if err == nil {
		err = e.Mutable.Delete(e.victim)
	}
	return sim, ids, err
}

// TestAssignmentLabelsRowsFromItsSnapshot: a Delete landing after the
// dense sweep must not relabel the rows the sweep scored (nor index
// past the shrunken engine): the assignment path answers with the
// pre-delete ranking.
func TestAssignmentLabelsRowsFromItsSnapshot(t *testing.T) {
	const features, subjects = 32, 6
	m, err := live.Create(filepath.Join(t.TempDir(), "live"), features, nil, live.Options{NoSync: true})
	if err != nil {
		t.Fatalf("live.Create: %v", err)
	}
	defer m.Close()
	known := randGroup(features, subjects, 51)
	for i := 0; i < subjects; i++ {
		if err := m.Enroll(fmt.Sprintf("s%03d", i), known.Col(i)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	probes := randGroup(features, subjects, 52)
	kraw, praw := known.RawData(), probes.RawData()
	for i := range praw {
		praw[i] = kraw[i] + 0.5*praw[i]
	}
	plain, err := New(m)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := plain.IdentifyBatchTopK(context.Background(), probes, 3, false)
	if err != nil {
		t.Fatalf("IdentifyBatchTopK: %v", err)
	}

	a, err := New(&deleteAfterDense{Mutable: m, victim: "s000"})
	if err != nil {
		t.Fatalf("New(wrapper): %v", err)
	}
	got, err := a.IdentifyBatchTopK(context.Background(), probes, 3, true)
	if err != nil {
		t.Fatalf("IdentifyBatchTopK(assignment): %v", err)
	}
	if m.Index("s000") != -1 {
		t.Fatal("the wrapper did not delete its victim")
	}
	if !reflect.DeepEqual(got.Ranked, want.Ranked) {
		t.Fatalf("assignment ranks %+v, pre-delete ranks %+v", got.Ranked, want.Ranked)
	}
	if len(got.Assignment) != subjects {
		t.Fatalf("assignment %v over %d probes", got.Assignment, subjects)
	}
}

func TestOptionsValidation(t *testing.T) {
	eng := shard.Wrap(gallery.New(2))
	if _, err := New(eng, WithTopK(0)); err == nil || errors.Is(err, ErrNoGallery) || !strings.Contains(err.Error(), "WithTopK") {
		t.Errorf("New(engine, WithTopK(0)) = %v, want a WithTopK error", err)
	}
	if _, err := New(eng, WithTimeout(-time.Second)); err == nil || errors.Is(err, ErrNoGallery) || !strings.Contains(err.Error(), "WithTimeout") {
		t.Errorf("New(engine, WithTimeout(-1s)) = %v, want a WithTimeout error", err)
	}
	a, err := New(eng, WithParallelism(-3))
	if err != nil {
		t.Fatalf("WithParallelism(-3): %v", err)
	}
	if a.Parallelism() != 0 {
		t.Errorf("negative parallelism not clamped: %d", a.Parallelism())
	}
}

// TestNoGallery: a session is an engine plus knobs, so New refuses to
// build one without an engine — unless an option supplies it.
func TestNoGallery(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrNoGallery) {
		t.Errorf("New(nil) = %v, want ErrNoGallery", err)
	}
	var typedNil *shard.Store
	if _, err := New(typedNil, WithTopK(2)); !errors.Is(err, ErrNoGallery) {
		t.Errorf("New(typed nil) = %v, want ErrNoGallery", err)
	}
	m, err := live.Create(filepath.Join(t.TempDir(), "live"), 2, nil, live.Options{NoSync: true})
	if err != nil {
		t.Fatalf("live.Create: %v", err)
	}
	defer m.Close()
	a, err := New(nil, WithMutableGallery(m))
	if err != nil {
		t.Fatalf("New(nil, WithMutableGallery): %v", err)
	}
	if a.Gallery() == nil || a.Mutable() == nil {
		t.Errorf("WithMutableGallery session: Gallery %v, Mutable %v", a.Gallery(), a.Mutable())
	}
}

func TestSessionTimeout(t *testing.T) {
	a, _, probes := testSession(t, 1)
	s, err := New(a.Gallery(), WithTimeout(time.Nanosecond))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	time.Sleep(time.Millisecond) // let the 1ns budget expire deterministically
	if _, err := s.Identify(context.Background(), probes.Col(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Identify under expired session timeout: %v", err)
	}
}

// TestIdentifyBatchCancelled covers the gallery path under cancellation.
func TestIdentifyBatchCancelled(t *testing.T) {
	a, _, probes := testSession(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.IdentifyBatch(ctx, probes); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled IdentifyBatch: %v", err)
	}
	if _, err := a.Identify(ctx, probes.Col(0)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Identify: %v", err)
	}
}
