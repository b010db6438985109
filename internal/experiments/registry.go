package experiments

import (
	"context"
	"fmt"
	"strings"

	"brainprint/internal/core"
	"brainprint/internal/synth"
	"brainprint/internal/tsne"
)

// Result is what every experiment returns: a structured result that can
// render the paper's artifact as text.
type Result interface {
	// Render prints the paper's artifact (ASCII heatmap, aligned
	// table, …) as text.
	Render() string
}

// Input carries the datasets and sweep parameters of one experiment
// run. Zero values mean "the defaults the CLI has always used"; the
// attack configuration itself (feature budget, selection method,
// parallelism) is Run's cfg argument, not part of the input.
type Input struct {
	// HCP is the HCP-like cohort (required when the experiment's spec
	// says NeedsHCP).
	HCP *synth.HCPCohort
	// ADHD is the ADHD-200-like cohort (required when NeedsADHD).
	ADHD *synth.ADHDCohort
	// Seed drives every randomized sweep of the experiment.
	Seed int64
	// Trials is the repeat count of resampled experiments (default 5).
	Trials int
	// KnownFraction is the labelled fraction for task clustering
	// (default 0.5, the paper's 50 known subjects).
	KnownFraction float64
	// TrainFraction is the train split of the transfer experiment
	// (default 0.7).
	TrainFraction float64
	// NoiseLevels are the Table 2 noise-variance fractions (default
	// 0.1, 0.2, 0.3, the paper's grid).
	NoiseLevels []float64
	// Sigmas are the defense sweep noise levels (default 0, 0.2, 0.4,
	// 0.8).
	Sigmas []float64
	// DefenseTopFeatures is the targeted-noise feature budget (default
	// twice the configured feature budget).
	DefenseTopFeatures int
	// TSNE overrides the t-SNE configuration of the clustering attack
	// (default perplexity 20, 400 iterations, seeded from Seed).
	TSNE *tsne.Config
	// Performance overrides the Table 1 regression configuration
	// (default: the configured feature budget, 4×Trials resampling
	// splits — the CLI's historical stabilizing multiplier — and Seed).
	Performance *core.PerformanceConfig
	// DefenseSubjects is the gallery-defense sweep cohort size
	// (default 1000).
	DefenseSubjects int
	// DefenseFeatures is the gallery-defense sweep fingerprint
	// dimensionality (default 96).
	DefenseFeatures int
	// DefenseClusters is the gallery-defense sweep task-label count
	// (default 8).
	DefenseClusters int
	// DefenseTopK is the gallery-defense sweep ranked-list depth
	// (default 5).
	DefenseTopK int
	// DefenseKSameKs is the gallery-defense k-same strength grid
	// (default 2, 5, 10).
	DefenseKSameKs []int
	// DefenseEpsilons is the gallery-defense DP-noise ε grid (default
	// 20, 8, 2).
	DefenseEpsilons []float64
}

// withDefaults resolves the zero values against the attack config.
func (in Input) withDefaults(cfg core.AttackConfig) Input {
	if in.Trials <= 0 {
		in.Trials = 5
	}
	if in.KnownFraction <= 0 || in.KnownFraction >= 1 {
		in.KnownFraction = 0.5
	}
	if in.TrainFraction <= 0 || in.TrainFraction >= 1 {
		in.TrainFraction = 0.7
	}
	if len(in.NoiseLevels) == 0 {
		in.NoiseLevels = []float64{0.1, 0.2, 0.3}
	}
	if len(in.Sigmas) == 0 {
		in.Sigmas = []float64{0, 0.2, 0.4, 0.8}
	}
	if in.DefenseTopFeatures <= 0 {
		in.DefenseTopFeatures = 2 * cfg.Features
	}
	if in.TSNE == nil {
		in.TSNE = &tsne.Config{Perplexity: 20, Iterations: 400, Seed: in.Seed}
	}
	if in.Performance == nil {
		p := core.DefaultPerformanceConfig()
		p.Features = cfg.Features
		p.Trials = 4 * in.Trials
		p.Seed = in.Seed
		in.Performance = &p
	}
	return in
}

// Experiment is one registry entry: the single source of truth for the
// experiment's CLI name, its one-line synopsis, which cohorts it needs,
// and how to run it. The CLI derives its usage text and dispatch from
// this registry, so the two can never drift.
type Experiment struct {
	// Name is the CLI identifier (fig1, table2, defense, …).
	Name string
	// Synopsis is a one-line description for usage text.
	Synopsis string
	// NeedsHCP declares that Run requires an HCP-like cohort, letting
	// callers generate expensive cohorts lazily.
	NeedsHCP bool
	// NeedsADHD declares that Run requires an ADHD-like cohort.
	NeedsADHD bool

	run func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error)
}

// registry lists every experiment in the canonical "all" execution
// order.
var registry = []Experiment{
	{
		Name: "fig1", Synopsis: "resting-state pairwise similarity (Figure 1)", NeedsHCP: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Figure1(ctx, in.HCP, cfg)
		},
	},
	{
		Name: "fig2", Synopsis: "language-task pairwise similarity (Figure 2)", NeedsHCP: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Figure2(ctx, in.HCP, cfg)
		},
	},
	{
		Name: "fig5", Synopsis: "cross-task identification accuracy matrix (Figure 5)", NeedsHCP: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Figure5(ctx, in.HCP, cfg)
		},
	},
	{
		Name: "fig6", Synopsis: "t-SNE task clustering and prediction (Figure 6)", NeedsHCP: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Figure6(ctx, in.HCP, in.KnownFraction, *in.TSNE, in.Seed)
		},
	},
	{
		Name: "table1", Synopsis: "task-performance prediction error (Table 1)", NeedsHCP: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Table1(ctx, in.HCP, *in.Performance)
		},
	},
	{
		Name: "fig7", Synopsis: "ADHD subtype-1 inter-session similarity (Figure 7)", NeedsADHD: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Figure7(ctx, in.ADHD, cfg)
		},
	},
	{
		Name: "fig8", Synopsis: "ADHD subtype-3 inter-session similarity (Figure 8)", NeedsADHD: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Figure8(ctx, in.ADHD, cfg)
		},
	},
	{
		Name: "fig9", Synopsis: "full ADHD cohort with leverage transfer (Figure 9)", NeedsADHD: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Figure9(ctx, in.ADHD, cfg, in.Trials, in.TrainFraction, in.Seed)
		},
	},
	{
		Name: "table2", Synopsis: "multi-site noise robustness sweep (Table 2)", NeedsHCP: true, NeedsADHD: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return Table2(ctx, in.HCP, in.ADHD, in.NoiseLevels, in.Trials, cfg, in.Seed)
		},
	},
	{
		Name: "defense", Synopsis: "targeted vs uniform release-noise defense (§4)", NeedsHCP: true,
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return DefenseSweep(ctx, in.HCP, in.Sigmas, in.DefenseTopFeatures, cfg, in.Seed)
		},
	},
	{
		Name: "gallery-defense", Synopsis: "gallery anonymization attack-vs-utility sweep (k-same, DP noise)",
		run: func(ctx context.Context, cfg core.AttackConfig, in Input) (Result, error) {
			return GalleryDefenseSweep(ctx, GalleryDefenseConfig{
				Subjects:    in.DefenseSubjects,
				Features:    in.DefenseFeatures,
				Clusters:    in.DefenseClusters,
				TopK:        in.DefenseTopK,
				KSameKs:     in.DefenseKSameKs,
				Epsilons:    in.DefenseEpsilons,
				Parallelism: cfg.Parallelism,
				Seed:        in.Seed,
			})
		},
	},
}

// Experiments returns every registered experiment in canonical order.
// The returned slice is a copy.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Names returns the experiment names in canonical order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Find returns the experiment registered under name.
func Find(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run runs one registered experiment by name under the attack
// configuration cfg. Unknown names list the valid ones, and a missing
// cohort the experiment needs is an error; a cancelled context aborts
// the sweep between grid cells and surfaces ctx.Err().
func Run(ctx context.Context, name string, cfg core.AttackConfig, in Input) (Result, error) {
	e, ok := Find(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
	if e.NeedsHCP && in.HCP == nil {
		return nil, fmt.Errorf("experiments: experiment %q needs an HCP cohort", e.Name)
	}
	if e.NeedsADHD && in.ADHD == nil {
		return nil, fmt.Errorf("experiments: experiment %q needs an ADHD cohort", e.Name)
	}
	return e.run(ctx, cfg, in.withDefaults(cfg))
}
