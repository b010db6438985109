package experiments

import (
	"context"
	"fmt"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/report"
	"brainprint/internal/synth"
)

// SimilarityResult is the outcome of one pairwise-similarity experiment
// (Figures 1, 2, 7, 8, 9): the subject×subject similarity matrix in the
// reduced feature space, its diagonal contrast, and the identification
// accuracy it implies.
type SimilarityResult struct {
	Name     string         // figure title
	Sim      *linalg.Matrix // known × anonymous subject similarity
	DiagMean float64        // mean same-subject similarity
	OffMean  float64        // mean different-subject similarity
	Accuracy float64        // identification accuracy
	NumFeat  int            // features the attack selected
	NumSubj  int            // subjects per session
}

// Render prints the result as an ASCII heatmap with summary statistics,
// the textual analogue of the paper's matrix figures.
func (r *SimilarityResult) Render() string {
	s := fmt.Sprintf("%s\nsubjects=%d features=%d\n", r.Name, r.NumSubj, r.NumFeat)
	s += report.Heatmap(r.Sim, nil, nil, 60)
	s += fmt.Sprintf("diagonal mean %.3f vs off-diagonal mean %.3f; identification accuracy %s\n",
		r.DiagMean, r.OffMean, report.Percent(r.Accuracy))
	return s
}

// pairSimilarity runs the attack between two matched scan groups and
// summarizes the similarity matrix.
func pairSimilarity(ctx context.Context, name string, known, anon *linalg.Matrix, cfg core.AttackConfig) (*SimilarityResult, error) {
	res, err := core.DeanonymizeCtx(ctx, known, anon, cfg)
	if err != nil {
		return nil, err
	}
	diag, off, err := match.DiagonalContrast(res.Similarity)
	if err != nil {
		return nil, err
	}
	_, subj := known.Dims()
	return &SimilarityResult{
		Name:     name,
		Sim:      res.Similarity,
		DiagMean: diag,
		OffMean:  off,
		Accuracy: res.Accuracy,
		NumFeat:  len(res.Features),
		NumSubj:  subj,
	}, nil
}

// Figure1 reproduces the paper's Figure 1: pairwise similarity of
// resting-state connectomes, REST1 L-R (de-anonymized) against REST2
// R-L (anonymous), in the principal features subspace.
func Figure1(ctx context.Context, c *synth.HCPCohort, cfg core.AttackConfig) (*SimilarityResult, error) {
	known, anon, err := hcpPair(ctx, c, synth.Rest1, synth.LR, synth.Rest2, synth.RL, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	return pairSimilarity(ctx, "Figure 1: resting-state pairwise similarity (REST1-LR vs REST2-RL)", known, anon, cfg)
}

// Figure2 reproduces Figure 2: pairwise similarity of LANGUAGE task
// connectomes across encodings. The diagonal remains dominant but with
// weaker contrast than rest.
func Figure2(ctx context.Context, c *synth.HCPCohort, cfg core.AttackConfig) (*SimilarityResult, error) {
	known, anon, err := hcpPair(ctx, c, synth.Language, synth.LR, synth.Language, synth.RL, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	return pairSimilarity(ctx, "Figure 2: language-task pairwise similarity (LANGUAGE-LR vs LANGUAGE-RL)", known, anon, cfg)
}

// hcpPair builds the two group matrices for a pair of conditions.
func hcpPair(ctx context.Context, c *synth.HCPCohort, t1 synth.Task, e1 synth.Encoding, t2 synth.Task, e2 synth.Encoding, parallelism int) (*linalg.Matrix, *linalg.Matrix, error) {
	s1, err := c.ScansFor(t1, e1)
	if err != nil {
		return nil, nil, err
	}
	s2, err := c.ScansFor(t2, e2)
	if err != nil {
		return nil, nil, err
	}
	known, err := BuildGroupMatrix(ctx, s1, connectome.Options{Parallelism: parallelism})
	if err != nil {
		return nil, nil, err
	}
	anon, err := BuildGroupMatrix(ctx, s2, connectome.Options{Parallelism: parallelism})
	if err != nil {
		return nil, nil, err
	}
	return known, anon, nil
}
