package brainprint_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation at a medium cohort scale (fast enough for
// `go test -bench=.`, large enough for stable accuracies) and reports
// the headline metric of each experiment alongside the runtime.
// `cmd/brainprint -scale paper` runs the same experiments at the paper's
// full 100×360 dimensions. Ablation benchmarks cover the design choices
// called out in DESIGN.md.

import (
	"sync"
	"testing"

	"brainprint"
)

// benchHCPParams is the shared medium-scale configuration: the
// paper-calibrated (thin identification margin) parameterization of
// PaperScaleHCPParams at reduced dimensions, so accuracies and their
// decay under noise behave like the paper's rather than saturating at
// 100%.
func benchHCPParams() brainprint.HCPParams {
	p := brainprint.PaperScaleHCPParams()
	p.Subjects = 40
	p.Regions = 100
	p.RestFrames = 250
	p.TaskFrames = 180
	p.Seed = 7
	return p
}

func benchADHDParams() brainprint.ADHDParams {
	p := brainprint.PaperScaleADHDParams()
	p.Controls = 30
	p.Subtype1 = 12
	p.Subtype2 = 2
	p.Subtype3 = 10
	p.Regions = 116
	p.Frames = 200
	p.Seed = 8
	return p
}

var (
	benchOnce sync.Once
	benchHCP  *brainprint.HCPCohort
	benchADHD *brainprint.ADHDCohort
	benchErr  error
)

// cohorts lazily generates the shared benchmark cohorts exactly once.
func cohorts(b *testing.B) (*brainprint.HCPCohort, *brainprint.ADHDCohort) {
	b.Helper()
	benchOnce.Do(func() {
		benchHCP, benchErr = brainprint.GenerateHCP(benchHCPParams())
		if benchErr != nil {
			return
		}
		benchADHD, benchErr = brainprint.GenerateADHD(benchADHDParams())
	})
	if benchErr != nil {
		b.Fatalf("cohort generation: %v", benchErr)
	}
	return benchHCP, benchADHD
}

// BenchmarkFigure1 regenerates Figure 1: resting-state pairwise
// similarity and identification (paper: accuracy > 94%).
func BenchmarkFigure1(b *testing.B) {
	hcp, _ := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.SimilarityResult]("fig1", cfg, brainprint.ExperimentInput{HCP: hcp})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(100*acc, "accuracy%")
}

// BenchmarkFigure2 regenerates Figure 2: language-task similarity
// (diagonal dominant, weaker contrast than rest).
func BenchmarkFigure2(b *testing.B) {
	hcp, _ := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var contrast float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.SimilarityResult]("fig2", cfg, brainprint.ExperimentInput{HCP: hcp})
		if err != nil {
			b.Fatal(err)
		}
		contrast = res.DiagMean - res.OffMean
	}
	b.ReportMetric(contrast, "diag-contrast")
}

// BenchmarkFigure5 regenerates the 8×8 cross-task identification matrix
// (paper: REST > 94%, LANGUAGE/RELATIONAL > 90%, SOCIAL > 80%, MOTOR and
// WM poor, matrix asymmetric).
func BenchmarkFigure5(b *testing.B) {
	hcp, _ := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var restAcc, motorAcc float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.CrossTaskResult]("fig5", cfg, brainprint.ExperimentInput{HCP: hcp})
		if err != nil {
			b.Fatal(err)
		}
		for j, t := range res.Conditions {
			switch t {
			case brainprint.Rest1:
				restAcc = res.Accuracy.At(j, j)
			case brainprint.Motor:
				motorAcc = res.Accuracy.At(j, j)
			}
		}
	}
	b.ReportMetric(100*restAcc, "rest%")
	b.ReportMetric(100*motorAcc, "motor%")
}

// BenchmarkFigure6 regenerates the t-SNE task clustering and 1-NN task
// prediction (paper: 100% on tasks, 99.01 ± 0.52% on rest).
func BenchmarkFigure6(b *testing.B) {
	hcp, _ := cohorts(b)
	tcfg := brainprint.TSNEConfig{Perplexity: 20, Iterations: 300, Seed: 3}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.TaskClusterResult]("fig6", brainprint.DefaultAttackConfig(),
			brainprint.ExperimentInput{HCP: hcp, KnownFraction: 0.5, TSNE: &tcfg, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(100*acc, "task-accuracy%")
}

// BenchmarkTable1 regenerates the task-performance regression errors
// (paper: train 0.28–0.57%, test 0.60–2.74% nRMSE).
func BenchmarkTable1(b *testing.B) {
	hcp, _ := cohorts(b)
	cfg := brainprint.DefaultPerformanceConfig()
	cfg.Trials = 10
	cfg.Seed = 4
	b.ResetTimer()
	var testErr float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.Table1Result]("table1", brainprint.DefaultAttackConfig(),
			brainprint.ExperimentInput{HCP: hcp, Performance: &cfg})
		if err != nil {
			b.Fatal(err)
		}
		testErr = res.Rows[brainprint.Language].TestNRMSE.Mean
	}
	b.ReportMetric(testErr, "language-test-nRMSE%")
}

// BenchmarkFigure7 regenerates the ADHD subtype-1 similarity matrix.
func BenchmarkFigure7(b *testing.B) {
	_, adhd := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.SimilarityResult]("fig7", cfg, brainprint.ExperimentInput{ADHD: adhd})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(100*acc, "accuracy%")
}

// BenchmarkFigure8 regenerates the ADHD subtype-3 similarity matrix.
func BenchmarkFigure8(b *testing.B) {
	_, adhd := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.SimilarityResult]("fig8", cfg, brainprint.ExperimentInput{ADHD: adhd})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(100*acc, "accuracy%")
}

// BenchmarkFigure9 regenerates the full ADHD cohort experiment with
// train/test leverage transfer (paper: 97.2 ± 0.9% cases, 94.12 ± 3.4%
// mixed).
func BenchmarkFigure9(b *testing.B) {
	_, adhd := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var mixed float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.Figure9Result]("fig9", cfg,
			brainprint.ExperimentInput{ADHD: adhd, Trials: 5, TrainFraction: 0.7, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		mixed = res.MixedTransfer.Mean
	}
	b.ReportMetric(mixed, "mixed-transfer%")
}

// BenchmarkTable2 regenerates the multi-site noise sweep (paper: HCP
// 91.1/86.7/79.1%, ADHD 96.3/89.2/84.1% at 10/20/30% noise).
func BenchmarkTable2(b *testing.B) {
	hcp, adhd := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var low, high float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.Table2Result]("table2", cfg,
			brainprint.ExperimentInput{HCP: hcp, ADHD: adhd, NoiseLevels: []float64{0.1, 0.2, 0.3}, Trials: 2, Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		low = res.HCP[0].Mean
		high = res.HCP[len(res.HCP)-1].Mean
	}
	b.ReportMetric(low, "hcp-10%-noise%")
	b.ReportMetric(high, "hcp-30%-noise%")
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// BenchmarkAblationSampling compares feature-selection strategies for
// the identification attack: deterministic leverage (the paper), l2-norm
// sampling, uniform sampling, and the full feature space.
func BenchmarkAblationSampling(b *testing.B) {
	hcp, _ := cohorts(b)
	knownScans, err := hcp.ScansFor(brainprint.Rest1, brainprint.LR)
	if err != nil {
		b.Fatal(err)
	}
	anonScans, err := hcp.ScansFor(brainprint.Rest2, brainprint.RL)
	if err != nil {
		b.Fatal(err)
	}
	known, err := brainprint.GroupMatrix(knownScans, brainprint.ConnectomeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	anon, err := brainprint.GroupMatrix(anonScans, brainprint.ConnectomeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  brainprint.AttackConfig
	}{
		{"leverage-top100", brainprint.AttackConfig{Features: 100, Method: brainprint.SamplingLeverage, Deterministic: true}},
		{"l2norm-sample100", brainprint.AttackConfig{Features: 100, Method: brainprint.SamplingL2Norm, Seed: 1}},
		{"uniform-sample100", brainprint.AttackConfig{Features: 100, Method: brainprint.SamplingUniform, Seed: 1}},
		{"full-features", brainprint.AttackConfig{Features: 0}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := brainprint.Deanonymize(known, anon, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(100*acc, "accuracy%")
		})
	}
}

// BenchmarkAblationFeatureCount sweeps the principal-features budget t,
// the paper's "reduce 64620 features to under 100" choice.
func BenchmarkAblationFeatureCount(b *testing.B) {
	hcp, _ := cohorts(b)
	knownScans, _ := hcp.ScansFor(brainprint.Rest1, brainprint.LR)
	anonScans, _ := hcp.ScansFor(brainprint.Rest2, brainprint.RL)
	known, err := brainprint.GroupMatrix(knownScans, brainprint.ConnectomeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	anon, err := brainprint.GroupMatrix(anonScans, brainprint.ConnectomeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []int{10, 50, 100, 500, 2000} {
		cfg := brainprint.DefaultAttackConfig()
		cfg.Features = t
		b.Run(featName(t), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := brainprint.Deanonymize(known, anon, cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(100*acc, "accuracy%")
		})
	}
}

func featName(t int) string {
	switch {
	case t < 100:
		return "t0" + itoa(t)
	default:
		return "t" + itoa(t)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationEmbedding compares t-SNE against a linear truncated
// projection (PCA-style, via the leverage machinery's SVD) for the task
// clustering attack. The paper argues t-SNE's cluster preservation is
// what makes task prediction work.
func BenchmarkAblationEmbedding(b *testing.B) {
	hcp, _ := cohorts(b)
	b.Run("tsne", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			res, err := runExp[*brainprint.TaskClusterResult]("fig6", brainprint.DefaultAttackConfig(),
				brainprint.ExperimentInput{HCP: hcp, KnownFraction: 0.5, TSNE: &brainprint.TSNEConfig{Perplexity: 20, Iterations: 300, Seed: 3}, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			acc = res.Accuracy
		}
		b.ReportMetric(100*acc, "task-accuracy%")
	})
	b.Run("tsne-few-iters", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			res, err := runExp[*brainprint.TaskClusterResult]("fig6", brainprint.DefaultAttackConfig(),
				brainprint.ExperimentInput{HCP: hcp, KnownFraction: 0.5, TSNE: &brainprint.TSNEConfig{Perplexity: 20, Iterations: 30, ExaggerationIters: 5, Seed: 3}, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			acc = res.Accuracy
		}
		b.ReportMetric(100*acc, "task-accuracy%")
	})
}

// BenchmarkDefense evaluates the §4 countermeasure: targeted vs uniform
// noise on the released dataset at matched distortion budget.
func BenchmarkDefense(b *testing.B) {
	hcp, _ := cohorts(b)
	cfg := brainprint.DefaultAttackConfig()
	b.ResetTimer()
	var targeted, uniform float64
	for i := 0; i < b.N; i++ {
		res, err := runExp[*brainprint.DefenseResult]("defense", cfg,
			brainprint.ExperimentInput{HCP: hcp, Sigmas: []float64{0.4}, DefenseTopFeatures: 200, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Strategy {
			case brainprint.DefenseTargeted:
				targeted = row.IdentificationAcc
			case brainprint.DefenseUniform:
				uniform = row.IdentificationAcc
			}
		}
	}
	b.ReportMetric(100*targeted, "targeted-ident%")
	b.ReportMetric(100*uniform, "uniform-ident%")
}

// BenchmarkAblationMatching compares the paper's independent argmax
// matching against the optimal one-to-one assignment (Hungarian).
func BenchmarkAblationMatching(b *testing.B) {
	hcp, _ := cohorts(b)
	knownScans, _ := hcp.ScansFor(brainprint.Rest1, brainprint.LR)
	anonScans, _ := hcp.ScansFor(brainprint.Rest2, brainprint.RL)
	known, err := brainprint.GroupMatrix(knownScans, brainprint.ConnectomeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	anon, err := brainprint.GroupMatrix(anonScans, brainprint.ConnectomeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := brainprint.Deanonymize(known, anon, brainprint.DefaultAttackConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy-argmax", func(b *testing.B) {
		acc := res.Accuracy
		for i := 0; i < b.N; i++ {
			r2, err := brainprint.Deanonymize(known, anon, brainprint.DefaultAttackConfig())
			if err != nil {
				b.Fatal(err)
			}
			acc = r2.Accuracy
		}
		b.ReportMetric(100*acc, "accuracy%")
	})
	b.Run("hungarian", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			a, err := brainprint.OptimalAssignmentAccuracy(res.Similarity, nil)
			if err != nil {
				b.Fatal(err)
			}
			acc = a
		}
		b.ReportMetric(100*acc, "accuracy%")
	})
}
