package attacker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"brainprint/internal/core"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/synth"
)

// cancelBudget is the wall-clock bound on a cancelled run: the 1s
// acceptance criterion normally, widened under the race detector whose
// ~10× instrumentation slowdown (plus CI contention) makes sub-second
// wall-clock assertions flaky without changing what is being proven —
// that in-flight chunks drain promptly after cancellation.
func cancelBudget() time.Duration {
	if raceEnabled {
		return 5 * time.Second
	}
	return time.Second
}

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
	cfg := core.DefaultAttackConfig()
	cfg.Features = 80
	fps, idx, err := core.Fingerprints(known, cfg)
	if err != nil {
		t.Fatalf("Fingerprints: %v", err)
	}
	g := gallery.WithFeatureIndex(idx)
	ids := make([]string, fps.Cols())
	for i := range ids {
		ids[i] = fmt.Sprintf("s%03d", i)
	}
	if err := g.EnrollMatrix(ids, fps); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	a, err := New(shard.Wrap(g), append([]Option{WithConfig(cfg), WithTopK(topK)}, opts...)...)
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
	cfg := a.Config()

	// Reference 1: the dense similarity matrix of the stateless attack
	// on the reduced feature space.
	res, err := core.Deanonymize(known, probes, cfg)
	if err != nil {
		t.Fatalf("Deanonymize: %v", err)
	}

	// Reference 2: the session's query engine.
	wantRanked, err := a.Gallery().QueryAllCtx(context.Background(), probes, 3, 0)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}

	for _, parallelism := range []int{1, 0, 3} {
		s, err := New(a.Gallery(), WithConfig(cfg), WithTopK(3), WithParallelism(parallelism))
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
				if sim := res.Similarity.At(cand.Index, j); cand.Score != sim {
					t.Fatalf("parallelism=%d probe %d rank %d: score %v != SimilarityMatrix %v (not bit-identical)",
						parallelism, j, r, cand.Score, sim)
				}
			}
			if top[0].Index != res.Predictions[j] {
				t.Fatalf("parallelism=%d probe %d: argmax %d != dense attack prediction %d",
					parallelism, j, top[0].Index, res.Predictions[j])
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
	sim, err := a.Gallery().DenseSimilarityCtx(context.Background(), probes, 0)
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

func TestOptionsValidation(t *testing.T) {
	if _, err := New(nil, WithTopK(0)); err == nil {
		t.Error("WithTopK(0) accepted")
	}
	if _, err := New(nil, WithTimeout(-time.Second)); err == nil {
		t.Error("negative WithTimeout accepted")
	}
	a, err := New(nil, WithParallelism(-3))
	if err != nil {
		t.Fatalf("WithParallelism(-3): %v", err)
	}
	if a.Parallelism() != 0 {
		t.Errorf("negative parallelism not clamped: %d", a.Parallelism())
	}
}

func TestNoGallery(t *testing.T) {
	a, err := New(nil)
	if err != nil {
		t.Fatalf("New(nil): %v", err)
	}
	if _, err := a.Identify(context.Background(), []float64{1, 2}); !errors.Is(err, ErrNoGallery) {
		t.Errorf("Identify without gallery: %v", err)
	}
	if _, err := a.IdentifyBatch(context.Background(), linalg.NewMatrix(2, 2)); !errors.Is(err, ErrNoGallery) {
		t.Errorf("IdentifyBatch without gallery: %v", err)
	}
	in := make(chan Probe, 1)
	in <- Probe{ID: "p", Vector: []float64{1, 2}}
	close(in)
	r := <-a.IdentifyStream(context.Background(), in)
	if !errors.Is(r.Err, ErrNoGallery) {
		t.Errorf("stream without gallery: %v", r.Err)
	}
}

func TestSessionTimeout(t *testing.T) {
	a, _, probes := testSession(t, 1)
	s, err := New(a.Gallery(), WithConfig(a.Config()), WithTimeout(time.Nanosecond))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	time.Sleep(time.Millisecond) // let the 1ns budget expire deterministically
	if _, err := s.Identify(context.Background(), probes.Col(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Identify under expired session timeout: %v", err)
	}
}

// smallHCP generates a small HCP-like cohort for registry tests.
func smallHCP(t *testing.T) *synth.HCPCohort {
	t.Helper()
	p := synth.DefaultHCPParams()
	p.Subjects = 8
	p.Regions = 30
	p.RestFrames = 120
	p.TaskFrames = 90
	c, err := synth.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	return c
}

func smallADHD(t *testing.T) *synth.ADHDCohort {
	t.Helper()
	p := synth.DefaultADHDParams()
	p.Controls = 8
	p.Subtype1 = 5
	p.Subtype2 = 0
	p.Subtype3 = 4
	p.Regions = 36
	p.Frames = 120
	c, err := synth.GenerateADHD(p)
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	return c
}

func TestRunExperimentRegistry(t *testing.T) {
	cfg := core.DefaultAttackConfig()
	cfg.Features = 60
	a, err := New(nil, WithConfig(cfg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := a.RunExperiment(context.Background(), "fig1", Input{HCP: smallHCP(t)})
	if err != nil {
		t.Fatalf("RunExperiment(fig1): %v", err)
	}
	if res.Render() == "" {
		t.Error("empty rendering")
	}
	if _, err := a.RunExperiment(context.Background(), "fig99", Input{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := a.RunExperiment(context.Background(), "fig1", Input{}); err == nil {
		t.Error("missing HCP cohort accepted")
	}
	if _, err := a.RunExperiment(context.Background(), "fig7", Input{}); err == nil {
		t.Error("missing ADHD cohort accepted")
	}
}

func TestRegistryShape(t *testing.T) {
	names := Names()
	want := []string{"fig1", "fig2", "fig5", "fig6", "table1", "fig7", "fig8", "fig9", "table2", "defense", "gallery-defense"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, e := range Experiments() {
		if e.Synopsis == "" {
			t.Errorf("experiment %q has no synopsis", e.Name)
		}
		if !e.NeedsHCP && !e.NeedsADHD && e.Name != "gallery-defense" {
			// gallery-defense synthesizes its own cohort; every other
			// experiment must declare at least one input cohort.
			t.Errorf("experiment %q declares no cohorts", e.Name)
		}
		if _, ok := Find(e.Name); !ok {
			t.Errorf("Find(%q) failed", e.Name)
		}
	}
}

// TestRunExperimentPreCancelled: a cancelled context never starts work.
func TestRunExperimentPreCancelled(t *testing.T) {
	a, err := New(nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := a.RunExperiment(ctx, "table2", Input{HCP: smallHCP(t), ADHD: smallADHD(t), Trials: 50}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunExperiment: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled abort took %v", elapsed)
	}
}

// TestRunExperimentMidRunCancel is the acceptance criterion: cancelling
// mid-run aborts a long experiment in well under a second, where the
// full grid (3 noise levels × 400 trials) would take minutes.
func TestRunExperimentMidRunCancel(t *testing.T) {
	cfg := core.DefaultAttackConfig()
	cfg.Features = 60
	cfg.Parallelism = 2
	a, err := New(nil, WithConfig(cfg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	in := Input{HCP: smallHCP(t), ADHD: smallADHD(t), Trials: 400, Seed: 3}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = a.RunExperiment(ctx, "table2", in)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if budget := cancelBudget(); elapsed > budget {
		t.Fatalf("mid-run cancel took %v, want < %v", elapsed, budget)
	}
}

// TestDeanonymizeCancelPaperScale cancels the dense attack at the
// paper's dimensions (64620 features × 100 subjects) and requires the
// abort inside a second — the serial sweep alone costs ~650M multiplies.
func TestDeanonymizeCancelPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale matrices")
	}
	cfg := core.AttackConfig{Features: 0, Parallelism: 1} // full space, serial
	a, err := New(nil, WithConfig(cfg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	known := randGroup(64620, 100, 11)
	anon := randGroup(64620, 100, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = a.Deanonymize(ctx, known, anon)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if budget := cancelBudget(); elapsed > budget {
		t.Fatalf("paper-scale abort took %v, want < %v", elapsed, budget)
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
