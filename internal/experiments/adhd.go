package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/parallel"
	"brainprint/internal/sampling"
	"brainprint/internal/stats"
	"brainprint/internal/synth"
)

// Figure7 reproduces the paper's Figure 7: session-1 vs session-2
// similarity of ADHD subtype-1 (combined type) subjects.
func Figure7(ctx context.Context, c *synth.ADHDCohort, cfg core.AttackConfig) (*SimilarityResult, error) {
	return adhdSimilarity(ctx, c, cfg, "Figure 7: ADHD subtype-1 inter-session similarity", synth.Subtype1)
}

// Figure8 reproduces Figure 8 for subtype 3 (inattentive type).
func Figure8(ctx context.Context, c *synth.ADHDCohort, cfg core.AttackConfig) (*SimilarityResult, error) {
	return adhdSimilarity(ctx, c, cfg, "Figure 8: ADHD subtype-3 inter-session similarity", synth.Subtype3)
}

// adhdSimilarity runs the attack between the two sessions of the given
// diagnostic groups.
func adhdSimilarity(ctx context.Context, c *synth.ADHDCohort, cfg core.AttackConfig, name string, groups ...synth.ADHDGroup) (*SimilarityResult, error) {
	subjects := c.SubjectsInGroups(groups...)
	if len(subjects) < 2 {
		return nil, fmt.Errorf("experiments: only %d subjects in groups %v", len(subjects), groups)
	}
	known, anon, err := adhdPair(ctx, c, subjects, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	return pairSimilarity(ctx, name, known, anon, cfg)
}

// adhdPair builds session-1 and session-2 group matrices for a subject
// subset.
func adhdPair(ctx context.Context, c *synth.ADHDCohort, subjects []int, parallelism int) (*linalg.Matrix, *linalg.Matrix, error) {
	s1, err := c.SessionScans(subjects, 0)
	if err != nil {
		return nil, nil, err
	}
	s2, err := c.SessionScans(subjects, 1)
	if err != nil {
		return nil, nil, err
	}
	known, err := BuildGroupMatrixADHD(ctx, s1, connectome.Options{Parallelism: parallelism})
	if err != nil {
		return nil, nil, err
	}
	anon, err := BuildGroupMatrixADHD(ctx, s2, connectome.Options{Parallelism: parallelism})
	if err != nil {
		return nil, nil, err
	}
	return known, anon, nil
}

// DefaultTransferTrials is the resampling count TransferAccuracy falls
// back to — the single definition site shared with the facade's
// compatibility wrapper.
const DefaultTransferTrials = 10

// Figure9Result extends the similarity result with the train/test
// feature-transfer accuracy the paper reports alongside Figure 9
// (97.2 ± 0.9% for cases, 94.12 ± 3.4% for the full cases+controls
// cohort).
type Figure9Result struct {
	Similarity    *SimilarityResult // full-cohort inter-session similarity
	CasesTransfer stats.Summary     // test accuracy, case subjects only
	MixedTransfer stats.Summary     // test accuracy, cases + controls
}

// Render prints the similarity heatmap and transfer accuracies.
func (r *Figure9Result) Render() string {
	s := r.Similarity.Render()
	s += fmt.Sprintf("train/test leverage transfer accuracy (cases only):    %s\n", r.CasesTransfer)
	s += fmt.Sprintf("train/test leverage transfer accuracy (cases+controls): %s\n", r.MixedTransfer)
	return s
}

// Figure9 reproduces §3.3.4's quantitative claims: the full-cohort
// similarity matrix and the train/test experiment in which the
// principal features subspace is computed on a training subset of
// subjects and reused, unchanged, to identify held-out test subjects.
func Figure9(ctx context.Context, c *synth.ADHDCohort, cfg core.AttackConfig, trials int, trainFraction float64, seed int64) (*Figure9Result, error) {
	all := make([]int, c.Params.NumSubjects())
	for i := range all {
		all[i] = i
	}
	cases := c.SubjectsInGroups(synth.Subtype1, synth.Subtype2, synth.Subtype3)
	// The three sub-experiments (full-cohort similarity and the two
	// transfer runs) only read the cohort and write disjoint results, so
	// they fan out as a group; each keeps its own seed, so the outcome
	// matches the serial order exactly. The group's derived context
	// cancels the siblings as soon as one fails or the caller cancels.
	var (
		sim                *SimilarityResult
		casesAcc, mixedAcc stats.Summary
	)
	subCfg := cfg
	if parallel.Workers(cfg.Parallelism) > 1 {
		subCfg.Parallelism = 1
	}
	g, _ := parallel.NewGroupCtx(ctx, cfg.Parallelism)
	g.Go(func(gctx context.Context) (err error) {
		sim, err = adhdSimilarity(gctx, c, subCfg, "Figure 9: all ADHD-200 subjects (cases + controls)",
			synth.Control, synth.Subtype1, synth.Subtype2, synth.Subtype3)
		return err
	})
	g.Go(func(gctx context.Context) (err error) {
		casesAcc, err = TransferAccuracy(gctx, c, cases, subCfg, trials, trainFraction, seed)
		return err
	})
	g.Go(func(gctx context.Context) (err error) {
		mixedAcc, err = TransferAccuracy(gctx, c, all, subCfg, trials, trainFraction, seed+1)
		return err
	})
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return &Figure9Result{Similarity: sim, CasesTransfer: casesAcc, MixedTransfer: mixedAcc}, nil
}

// TransferAccuracy measures how well the principal features subspace
// generalizes across subjects: per trial, subjects are split into train
// and test sets, leverage scores are computed on the training group
// matrix only, and the held-out test subjects are identified across
// sessions in that fixed feature space (§3.3.4's protocol).
func TransferAccuracy(ctx context.Context, c *synth.ADHDCohort, subjects []int, cfg core.AttackConfig, trials int, trainFraction float64, seed int64) (stats.Summary, error) {
	if trials <= 0 {
		trials = DefaultTransferTrials
	}
	if trainFraction <= 0 || trainFraction >= 1 {
		trainFraction = 0.7
	}
	if len(subjects) < 4 {
		return stats.Summary{}, fmt.Errorf("experiments: need at least 4 subjects, got %d", len(subjects))
	}
	features := cfg.Features
	if features <= 0 {
		features = 100
	}
	known, anon, err := adhdPair(ctx, c, subjects, cfg.Parallelism)
	if err != nil {
		return stats.Summary{}, err
	}
	if f, _ := known.Dims(); features > f {
		features = f
	}
	n := len(subjects)
	nTrain := int(float64(n) * trainFraction)
	if nTrain < 2 {
		nTrain = 2
	}
	if nTrain > n-2 {
		nTrain = n - 2
	}
	// Trials are independent resampling experiments: each derives its own
	// RNG from the root seed (so the split a trial draws does not depend
	// on execution order) and fans out under cfg.Parallelism.
	accs := make([]float64, trials)
	trialCfg := cfg.Parallelism
	if parallel.Workers(cfg.Parallelism) > 1 {
		trialCfg = 1
	}
	err = parallel.ForCtx(ctx, cfg.Parallelism, trials, 1, func(lo, hi int) error {
		for trial := lo; trial < hi; trial++ {
			rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, int64(trial))))
			perm := rng.Perm(n)
			trainIdx := perm[:nTrain]
			testIdx := perm[nTrain:]
			featIdx, _, err := sampling.PrincipalFeatures(known.SelectCols(trainIdx), features)
			if err != nil {
				return err
			}
			kTest := known.SelectRows(featIdx).SelectCols(testIdx)
			aTest := anon.SelectRows(featIdx).SelectCols(testIdx)
			sim, err := match.SimilarityMatrixCtx(ctx, kTest, aTest, trialCfg)
			if err != nil {
				return err
			}
			acc, err := match.Accuracy(sim, nil)
			if err != nil {
				return err
			}
			accs[trial] = 100 * acc
		}
		return nil
	})
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(accs), nil
}
