package brainprint_test

// Facade tests: exercise the public API exactly as a downstream user
// would, covering the documented quickstart flow and every exported
// entry point's happy path.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"brainprint"
)

// runExp runs one registry experiment and returns its typed result
// (shared with bench_test.go).
func runExp[T any](name string, cfg brainprint.AttackConfig, in brainprint.ExperimentInput) (T, error) {
	var zero T
	res, err := brainprint.RunExperiment(context.Background(), name, cfg, in)
	if err != nil {
		return zero, err
	}
	return res.(T), nil
}

func facadeCohort(t *testing.T) *brainprint.HCPCohort {
	t.Helper()
	p := brainprint.DefaultHCPParams()
	p.Subjects = 12
	p.Regions = 40
	p.RestFrames = 150
	p.TaskFrames = 110
	c, err := brainprint.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	return c
}

func TestQuickstartFlow(t *testing.T) {
	cohort := facadeCohort(t)
	knownScans, err := cohort.ScansFor(brainprint.Rest1, brainprint.LR)
	if err != nil {
		t.Fatalf("ScansFor: %v", err)
	}
	known, err := brainprint.GroupMatrix(knownScans, brainprint.ConnectomeOptions{})
	if err != nil {
		t.Fatalf("GroupMatrix: %v", err)
	}
	anonScans, err := cohort.ScansFor(brainprint.Rest2, brainprint.RL)
	if err != nil {
		t.Fatalf("ScansFor: %v", err)
	}
	anon, err := brainprint.GroupMatrix(anonScans, brainprint.ConnectomeOptions{})
	if err != nil {
		t.Fatalf("GroupMatrix: %v", err)
	}
	res, err := brainprint.Deanonymize(known, anon, brainprint.DefaultAttackConfig())
	if err != nil {
		t.Fatalf("Deanonymize: %v", err)
	}
	if res.Accuracy < 0.9 {
		t.Errorf("quickstart accuracy %.2f want >= 0.9", res.Accuracy)
	}
	if heat := brainprint.RenderHeatmap(res.Similarity, 40); !strings.Contains(heat, "scale:") {
		t.Error("heatmap rendering broken")
	}
}

func TestFacadeExperimentRunners(t *testing.T) {
	cohort := facadeCohort(t)
	cfg := brainprint.DefaultAttackConfig()
	cfg.Features = 60

	f1, err := runExp[*brainprint.SimilarityResult]("fig1", cfg, brainprint.ExperimentInput{HCP: cohort})
	if err != nil {
		t.Fatalf("fig1: %v", err)
	}
	if f1.DiagMean <= f1.OffMean {
		t.Error("figure 1 contrast inverted")
	}
	f2, err := runExp[*brainprint.SimilarityResult]("fig2", cfg, brainprint.ExperimentInput{HCP: cohort})
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	if f2.Accuracy < 0.3 {
		t.Errorf("figure 2 accuracy %.2f suspiciously low", f2.Accuracy)
	}
}

func TestFacadeTaskAndPerformance(t *testing.T) {
	cohort := facadeCohort(t)
	f6, err := runExp[*brainprint.TaskClusterResult]("fig6", brainprint.DefaultAttackConfig(),
		brainprint.ExperimentInput{HCP: cohort, KnownFraction: 0.5, TSNE: &brainprint.TSNEConfig{Perplexity: 8, Iterations: 150, Seed: 2}, Seed: 2})
	if err != nil {
		t.Fatalf("fig6: %v", err)
	}
	if f6.Accuracy < 0.8 {
		t.Errorf("task prediction %.2f want >= 0.8", f6.Accuracy)
	}
	pcfg := brainprint.DefaultPerformanceConfig()
	pcfg.Trials = 4
	t1, err := runExp[*brainprint.Table1Result]("table1", brainprint.DefaultAttackConfig(),
		brainprint.ExperimentInput{HCP: cohort, Performance: &pcfg})
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	if len(t1.Rows) != 4 {
		t.Errorf("table 1 rows = %d want 4", len(t1.Rows))
	}
}

func TestFacadeADHDAndNoise(t *testing.T) {
	p := brainprint.DefaultADHDParams()
	p.Controls = 8
	p.Subtype1 = 5
	p.Subtype2 = 0
	p.Subtype3 = 4
	p.Regions = 36
	p.Frames = 120
	adhd, err := brainprint.GenerateADHD(p)
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	cfg := brainprint.DefaultAttackConfig()
	cfg.Features = 60
	f7, err := runExp[*brainprint.SimilarityResult]("fig7", cfg, brainprint.ExperimentInput{ADHD: adhd})
	if err != nil {
		t.Fatalf("fig7: %v", err)
	}
	if f7.NumSubj != 5 {
		t.Errorf("subtype-1 subjects = %d want 5", f7.NumSubj)
	}
	f9, err := runExp[*brainprint.Figure9Result]("fig9", cfg,
		brainprint.ExperimentInput{ADHD: adhd, Trials: 3, TrainFraction: 0.7, Seed: 4})
	if err != nil {
		t.Fatalf("fig9: %v", err)
	}
	if f9.MixedTransfer.N != 3 {
		t.Errorf("transfer trials = %d want 3", f9.MixedTransfer.N)
	}

	hcp := facadeCohort(t)
	t2, err := runExp[*brainprint.Table2Result]("table2", cfg,
		brainprint.ExperimentInput{HCP: hcp, ADHD: adhd, NoiseLevels: []float64{0.1}, Trials: 2, Seed: 5})
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	if len(t2.HCP) != 1 || len(t2.ADHD) != 1 {
		t.Error("table 2 rows missing")
	}
}

func TestFacadeImagingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid, err := brainprint.NewGrid(12, 12, 12, 2)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	phantom, err := brainprint.NewPhantom(grid, brainprint.DefaultPhantomParams(), rng)
	if err != nil {
		t.Fatalf("NewPhantom: %v", err)
	}
	atlas := brainprint.SymmetricAtlas("t", 6)
	labels := atlas.LabelVoxels(phantom)
	series := make([][]float64, 6)
	for r := range series {
		s := make([]float64, 40)
		for i := range s {
			s[i] = math.Sin(float64(i)/7 + float64(r))
		}
		series[r] = s
	}
	params := brainprint.DefaultAcquisitionParams()
	params.Frames = 40
	params.MotionMax = 0.3
	raw, _, err := brainprint.Acquire(phantom,
		&brainprint.RegionActivity{Labels: labels, Series: series}, params, rng)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	pipe := brainprint.DefaultPipeline(brainprint.MNIGrid(12))
	clean, ctx, err := pipe.Run(raw)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	var brainVoxels []int
	for i, b := range ctx.BrainMask {
		if b {
			brainVoxels = append(brainVoxels, i)
		}
	}
	regLabels := make([]int, len(brainVoxels))
	regionSeries, err := brainprint.ReduceToRegions(clean, brainVoxels, regLabels, 6)
	if err != nil {
		t.Fatalf("ReduceToRegions: %v", err)
	}
	con, err := brainprint.ConnectomeFromSeries(regionSeries, brainprint.ConnectomeOptions{})
	if err != nil {
		t.Fatalf("ConnectomeFromSeries: %v", err)
	}
	if con.NumRegions() != 6 || con.NumEdges() != 15 {
		t.Errorf("connectome %d regions %d edges", con.NumRegions(), con.NumEdges())
	}
}

func TestFacadeNoiseAndLeverage(t *testing.T) {
	cohort := facadeCohort(t)
	scan, err := cohort.Scan(0, brainprint.Rest1, brainprint.LR)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	rng := rand.New(rand.NewSource(6))
	noisy, err := brainprint.AddSeriesNoise(scan.Series, 0.2, rng)
	if err != nil {
		t.Fatalf("AddSeriesNoise: %v", err)
	}
	if noisy.EqualApprox(scan.Series, 1e-9) {
		t.Error("noise had no effect")
	}
	scans, _ := cohort.ScansFor(brainprint.Rest1, brainprint.LR)
	group, _ := brainprint.GroupMatrix(scans, brainprint.ConnectomeOptions{})
	scores, err := brainprint.LeverageScores(group)
	if err != nil {
		t.Fatalf("LeverageScores: %v", err)
	}
	if len(scores) != group.Rows() {
		t.Errorf("scores = %d want %d", len(scores), group.Rows())
	}
}

func TestFacadeRenderHelpers(t *testing.T) {
	m := brainprint.NewMatrix(2, 2)
	m.Set(0, 0, 1)
	if s := brainprint.RenderHeatmap(m, 10); !strings.Contains(s, "scale:") {
		t.Error("RenderHeatmap broken")
	}
	pts := brainprint.NewMatrix(2, 2)
	pts.Set(1, 0, 1)
	pts.Set(1, 1, 1)
	if s := brainprint.RenderScatter(pts, []int{0, 1}, 10, 5); !strings.Contains(s, "1") {
		t.Error("RenderScatter broken")
	}
	if s := brainprint.RenderTable([]string{"h"}, [][]string{{"v"}}); !strings.Contains(s, "v") {
		t.Error("RenderTable broken")
	}
}

// ExampleDeanonymize demonstrates the identification attack on a tiny
// cohort. Generation and the attack are fully deterministic, so the
// output is stable.
func ExampleDeanonymize() {
	params := brainprint.DefaultHCPParams()
	params.Subjects = 8
	params.Regions = 30
	params.RestFrames = 120
	params.TaskFrames = 80
	cohort, err := brainprint.GenerateHCP(params)
	if err != nil {
		panic(err)
	}
	knownScans, _ := cohort.ScansFor(brainprint.Rest1, brainprint.LR)
	anonScans, _ := cohort.ScansFor(brainprint.Rest2, brainprint.RL)
	known, _ := brainprint.GroupMatrix(knownScans, brainprint.ConnectomeOptions{})
	anon, _ := brainprint.GroupMatrix(anonScans, brainprint.ConnectomeOptions{})
	res, err := brainprint.Deanonymize(known, anon, brainprint.DefaultAttackConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("accuracy: %.0f%%, features: %d of %d\n",
		100*res.Accuracy, len(res.Features), known.Rows())
	// Output: accuracy: 100%, features: 100 of 435
}

// ExampleLeverageScores shows the feature-scoring primitive behind the
// principal features subspace method.
func ExampleLeverageScores() {
	m := brainprint.NewMatrix(4, 2)
	// Feature 0 spans a direction no other feature covers.
	m.Set(0, 0, 5)
	m.Set(1, 1, 1)
	m.Set(2, 1, 1)
	m.Set(3, 1, 1)
	scores, err := brainprint.LeverageScores(m)
	if err != nil {
		panic(err)
	}
	fmt.Printf("feature 0 leverage: %.2f\n", scores[0])
	// Output: feature 0 leverage: 1.00
}

// TestFacadeGalleryFlow walks the documented enroll-once, query-many
// flow end to end through the public API: build fingerprints from the
// known session, enroll to disk, reopen, append, and attack the
// anonymous session with ranked top-k queries.
func TestFacadeGalleryFlow(t *testing.T) {
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
	if idx == nil {
		t.Fatal("expected a feature index for a reducing config")
	}

	n := fps.Cols()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("hcp-s%03d", i)
	}
	g := brainprint.NewGalleryIndexed(idx)
	if err := g.EnrollMatrix(ids[:n-2], fps.SelectCols(seqInts(n-2))); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	path := t.TempDir() + "/hcp.bpg"
	if err := g.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// Append the last two subjects to the file without rewriting it.
	if _, err := brainprint.EnrollGalleryFile(path, ids[n-2:], fps.SelectCols([]int{n - 2, n - 1})); err != nil {
		t.Fatalf("EnrollGalleryFile: %v", err)
	}
	reopened, err := brainprint.OpenGallery(path)
	if err != nil {
		t.Fatalf("OpenGallery: %v", err)
	}
	if reopened.Len() != n {
		t.Fatalf("reopened gallery has %d subjects want %d", reopened.Len(), n)
	}

	// The anonymous session: raw probes, projected through the stored
	// feature index by the store that serves the gallery file.
	anonScans, err := c.ScansFor(brainprint.Rest2, brainprint.RL)
	if err != nil {
		t.Fatalf("ScansFor anon: %v", err)
	}
	anon, err := brainprint.GroupMatrix(anonScans, brainprint.ConnectomeOptions{})
	if err != nil {
		t.Fatalf("GroupMatrix anon: %v", err)
	}
	store, err := brainprint.OpenGalleryStore(path)
	if err != nil {
		t.Fatalf("OpenGalleryStore: %v", err)
	}
	ranked, err := store.QueryAllCtx(context.Background(), anon, 3, 0)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	correct := 0
	for j, top := range ranked {
		if len(top) != 3 {
			t.Fatalf("probe %d: %d candidates want 3", j, len(top))
		}
		if top[0].ID == ids[j] {
			correct++
		}
	}
	// The dense attack on the same reduced features must agree with the
	// gallery's argmax — and identification should work.
	res, err := brainprint.Deanonymize(known, anon, cfg)
	if err != nil {
		t.Fatalf("Deanonymize: %v", err)
	}
	for j, top := range ranked {
		if top[0].Index != res.Predictions[j] {
			t.Errorf("probe %d: gallery argmax %d, dense attack %d", j, top[0].Index, res.Predictions[j])
		}
	}
	if got := float64(correct) / float64(len(ranked)); got != res.Accuracy {
		t.Errorf("gallery top-1 accuracy %.3f != attack accuracy %.3f", got, res.Accuracy)
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
