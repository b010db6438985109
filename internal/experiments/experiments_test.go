package experiments

import (
	"context"
	"strings"
	"testing"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/defense"
	"brainprint/internal/synth"
	"brainprint/internal/tsne"
)

// testHCP returns a small cohort shared across experiment tests.
func testHCP(t *testing.T) *synth.HCPCohort {
	t.Helper()
	p := synth.DefaultHCPParams()
	p.Subjects = 14
	p.Regions = 44
	p.RestFrames = 160
	p.TaskFrames = 130
	c, err := synth.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	return c
}

func testADHD(t *testing.T) *synth.ADHDCohort {
	t.Helper()
	p := synth.DefaultADHDParams()
	p.Controls = 10
	p.Subtype1 = 6
	p.Subtype2 = 0
	p.Subtype3 = 5
	p.Regions = 40
	p.Frames = 150
	c, err := synth.GenerateADHD(p)
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	return c
}

func attackCfg() core.AttackConfig {
	cfg := core.DefaultAttackConfig()
	cfg.Features = 80
	return cfg
}

func TestBuildGroupMatrix(t *testing.T) {
	c := testHCP(t)
	scans, _ := c.ScansFor(synth.Rest1, synth.LR)
	g, err := BuildGroupMatrix(context.Background(), scans, connectome.Options{})
	if err != nil {
		t.Fatalf("BuildGroupMatrix: %v", err)
	}
	wantFeatures := 44 * 43 / 2
	if r, cc := g.Dims(); r != wantFeatures || cc != 14 {
		t.Fatalf("dims %dx%d want %dx14", r, cc, wantFeatures)
	}
	if _, err := BuildGroupMatrix(context.Background(), nil, connectome.Options{}); err == nil {
		t.Error("expected error for no scans")
	}
}

func TestFigure1ShapeMatchesPaper(t *testing.T) {
	c := testHCP(t)
	res, err := Figure1(context.Background(), c, attackCfg())
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	// The paper's headline claims: diagonal dominates, accuracy > 94%.
	if res.DiagMean <= res.OffMean {
		t.Errorf("diagonal (%.3f) must dominate off-diagonal (%.3f)", res.DiagMean, res.OffMean)
	}
	if res.Accuracy < 0.9 {
		t.Errorf("rest accuracy %.2f want >= 0.90", res.Accuracy)
	}
	if !strings.Contains(res.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFigure2WeakerContrastThanFigure1(t *testing.T) {
	c := testHCP(t)
	f1, err := Figure1(context.Background(), c, attackCfg())
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	f2, err := Figure2(context.Background(), c, attackCfg())
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	contrast1 := f1.DiagMean - f1.OffMean
	contrast2 := f2.DiagMean - f2.OffMean
	t.Logf("rest contrast=%.3f language contrast=%.3f", contrast1, contrast2)
	if contrast2 <= 0 {
		t.Errorf("language diagonal should still dominate (contrast %.3f)", contrast2)
	}
	if contrast2 >= contrast1 {
		t.Errorf("task contrast (%.3f) should be weaker than rest (%.3f), per Figure 2", contrast2, contrast1)
	}
}

func TestFigure5Shape(t *testing.T) {
	c := testHCP(t)
	res, err := Figure5(context.Background(), c, attackCfg())
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	n := len(res.Conditions)
	if r, cc := res.Accuracy.Dims(); r != n || cc != n {
		t.Fatalf("accuracy matrix %dx%d want %dx%d", r, cc, n, n)
	}
	idx := func(task synth.Task) int {
		for i, t2 := range res.Conditions {
			if t2 == task {
				return i
			}
		}
		t.Fatalf("condition %v missing", task)
		return -1
	}
	rest := idx(synth.Rest1)
	lang := idx(synth.Language)
	motor := idx(synth.Motor)
	wm := idx(synth.WorkingMemory)
	restAcc := res.Accuracy.At(rest, rest)
	langAcc := res.Accuracy.At(lang, lang)
	motorAcc := res.Accuracy.At(motor, motor)
	wmAcc := res.Accuracy.At(wm, wm)
	t.Logf("diag accuracies: rest=%.2f lang=%.2f motor=%.2f wm=%.2f", restAcc, langAcc, motorAcc, wmAcc)
	// Figure 5's qualitative structure.
	if restAcc < 0.9 {
		t.Errorf("rest-rest accuracy %.2f want >= 0.9", restAcc)
	}
	if langAcc < 0.7 {
		t.Errorf("language-language accuracy %.2f want >= 0.7", langAcc)
	}
	if motorAcc > 0.5 || wmAcc > 0.5 {
		t.Errorf("motor (%.2f) and WM (%.2f) should identify poorly even on-diagonal", motorAcc, wmAcc)
	}
	if restAcc <= motorAcc {
		t.Error("rest must beat motor")
	}
	if !strings.Contains(res.Render(), "REST1") {
		t.Error("render missing condition labels")
	}
}

func TestFigure6Clusters(t *testing.T) {
	c := testHCP(t)
	res, err := Figure6(context.Background(), c, 0.5, tsne.Config{Perplexity: 10, Iterations: 250, Seed: 2}, 3)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if res.Accuracy < 0.85 {
		t.Errorf("task prediction accuracy %.2f want >= 0.85 (paper ~100%%)", res.Accuracy)
	}
	wantPoints := 14 * len(synth.TaskConditions)
	if r, _ := res.Embedding.Dims(); r != wantPoints {
		t.Errorf("embedding rows %d want %d", r, wantPoints)
	}
	if len(res.PerTask) == 0 {
		t.Error("per-task accuracies missing")
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Error("render missing title")
	}
}

func TestTable1AllTasksPresent(t *testing.T) {
	p := synth.DefaultHCPParams()
	p.Subjects = 24
	p.Regions = 40
	p.RestFrames = 80
	p.TaskFrames = 150
	c, err := synth.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	cfg := core.DefaultPerformanceConfig()
	cfg.Trials = 5
	cfg.Seed = 2
	res, err := Table1(context.Background(), c, cfg)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	for _, task := range synth.PerformanceTasks {
		row, ok := res.Rows[task]
		if !ok {
			t.Fatalf("missing task %v", task)
		}
		// Train error must be low and not exceed test error (the Table 1
		// pattern).
		if row.TrainNRMSE.Mean > row.TestNRMSE.Mean+1 {
			t.Errorf("%v: train %.2f exceeds test %.2f", task, row.TrainNRMSE.Mean, row.TestNRMSE.Mean)
		}
		if row.TestNRMSE.Mean > 30 {
			t.Errorf("%v: test nRMSE %.2f%% too high", task, row.TestNRMSE.Mean)
		}
	}
	if !strings.Contains(res.Render(), "LANGUAGE") {
		t.Error("render missing task names")
	}
}

func TestFigures7And8(t *testing.T) {
	c := testADHD(t)
	cfg := attackCfg()
	f7, err := Figure7(context.Background(), c, cfg)
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	if f7.DiagMean <= f7.OffMean {
		t.Errorf("subtype-1 diagonal (%.3f) must dominate (%.3f)", f7.DiagMean, f7.OffMean)
	}
	if f7.NumSubj != 6 {
		t.Errorf("subtype-1 subjects = %d want 6", f7.NumSubj)
	}
	f8, err := Figure8(context.Background(), c, cfg)
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	if f8.DiagMean <= f8.OffMean {
		t.Errorf("subtype-3 diagonal (%.3f) must dominate (%.3f)", f8.DiagMean, f8.OffMean)
	}
}

func TestFigure9TransferAccuracy(t *testing.T) {
	p := synth.DefaultADHDParams()
	p.Controls = 14
	p.Subtype1 = 8
	p.Subtype2 = 0
	p.Subtype3 = 8
	p.Regions = 40
	p.Frames = 160
	c, err := synth.GenerateADHD(p)
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	res, err := Figure9(context.Background(), c, attackCfg(), 6, 0.7, 5)
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	t.Logf("cases transfer: %v, mixed transfer: %v", res.CasesTransfer, res.MixedTransfer)
	if res.CasesTransfer.Mean < 70 {
		t.Errorf("cases transfer accuracy %.1f%% want >= 70%% (paper: 97.2)", res.CasesTransfer.Mean)
	}
	if res.MixedTransfer.Mean < 70 {
		t.Errorf("mixed transfer accuracy %.1f%% want >= 70%% (paper: 94.1)", res.MixedTransfer.Mean)
	}
	if res.Similarity.DiagMean <= res.Similarity.OffMean {
		t.Error("full-cohort diagonal must dominate")
	}
	if !strings.Contains(res.Render(), "transfer") {
		t.Error("render missing transfer accuracies")
	}
}

func TestTransferAccuracyValidation(t *testing.T) {
	c := testADHD(t)
	if _, err := TransferAccuracy(context.Background(), c, []int{0, 1}, attackCfg(), 3, 0.7, 1); err == nil {
		t.Error("expected error for too-few subjects")
	}
}

func TestTable2MonotoneDecay(t *testing.T) {
	hcpP := synth.DefaultHCPParams()
	hcpP.Subjects = 12
	hcpP.Regions = 40
	hcpP.RestFrames = 150
	hcpP.TaskFrames = 60
	hcp, err := synth.GenerateHCP(hcpP)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	adhd := testADHD(t)
	res, err := Table2(context.Background(), hcp, adhd, []float64{0.1, 0.3}, 3, attackCfg(), 7)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(res.HCP) != 2 || len(res.ADHD) != 2 {
		t.Fatalf("rows missing: %+v", res)
	}
	// The paper's Table 2 pattern: accuracy decays as noise grows, and
	// low-noise accuracy stays high.
	if res.HCP[0].Mean < res.HCP[1].Mean-1e-9 {
		t.Errorf("HCP accuracy should not increase with noise: %v -> %v", res.HCP[0], res.HCP[1])
	}
	if res.HCP[0].Mean < 75 {
		t.Errorf("HCP accuracy at 10%% noise = %.1f%% want >= 75%% (paper: 91.1)", res.HCP[0].Mean)
	}
	if res.ADHD[0].Mean < 75 {
		t.Errorf("ADHD accuracy at 10%% noise = %.1f%% want >= 75%% (paper: 96.3)", res.ADHD[0].Mean)
	}
	if !strings.Contains(res.Render(), "Table 2") {
		t.Error("render missing title")
	}
}

func TestDefenseSweepTradeoffShape(t *testing.T) {
	p := synth.DefaultHCPParams()
	p.Subjects = 12
	p.Regions = 40
	p.RestFrames = 150
	p.TaskFrames = 110
	c, err := synth.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	cfg := attackCfg()
	res, err := DefenseSweep(context.Background(), c, []float64{0.0, 0.6}, 150, cfg, 4)
	if err != nil {
		t.Fatalf("DefenseSweep: %v", err)
	}
	if len(res.Rows) != 4 { // 2 sigmas × 2 strategies
		t.Fatalf("rows = %d want 4", len(res.Rows))
	}
	get := func(s defense.Strategy, sigma float64) DefenseRow {
		for _, row := range res.Rows {
			if row.Strategy == s && row.Sigma == sigma {
				return row
			}
		}
		t.Fatalf("row %v/%v missing", s, sigma)
		return DefenseRow{}
	}
	// Zero noise: no distortion, attack intact.
	clean := get(defense.Targeted, 0)
	if clean.Distortion != 0 {
		t.Errorf("zero-sigma distortion %v", clean.Distortion)
	}
	if clean.IdentificationAcc < 0.9 {
		t.Errorf("clean identification %.2f should be high", clean.IdentificationAcc)
	}
	// Strong targeted noise: privacy improves (identification drops)
	// more than the same budget spread uniformly.
	targeted := get(defense.Targeted, 0.6)
	uniform := get(defense.Uniform, 0.6)
	t.Logf("targeted: ident=%.2f task=%.2f dist=%.3f | uniform: ident=%.2f task=%.2f dist=%.3f",
		targeted.IdentificationAcc, targeted.TaskAcc, targeted.Distortion,
		uniform.IdentificationAcc, uniform.TaskAcc, uniform.Distortion)
	if targeted.IdentificationAcc > clean.IdentificationAcc {
		t.Error("targeted noise should not improve the attack")
	}
	if targeted.IdentificationAcc > uniform.IdentificationAcc+1e-9 {
		t.Errorf("targeted (%.2f) should beat uniform (%.2f) at equal budget",
			targeted.IdentificationAcc, uniform.IdentificationAcc)
	}
	// Utility: task prediction survives targeted protection.
	if targeted.TaskAcc < 0.7 {
		t.Errorf("task utility collapsed under targeted noise: %.2f", targeted.TaskAcc)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure6UsesProjectionForHugeFeatureSpaces(t *testing.T) {
	// 160 regions ⇒ 12720 connectome features, crossing the projection
	// threshold; the experiment must still run and cluster correctly.
	p := synth.DefaultHCPParams()
	p.Subjects = 8
	p.Regions = 160
	p.RestFrames = 70
	p.TaskFrames = 70
	c, err := synth.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	res, err := Figure6(context.Background(), c, 0.5, tsne.Config{Perplexity: 8, Iterations: 150, Seed: 4}, 4)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if rows, cols := res.Embedding.Dims(); rows != 8*len(synth.TaskConditions) || cols != 2 {
		t.Fatalf("embedding dims %dx%d", rows, cols)
	}
	if res.Accuracy < 0.8 {
		t.Errorf("projected task prediction accuracy %.2f want >= 0.8", res.Accuracy)
	}
}
