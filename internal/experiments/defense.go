package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/defense"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/report"
	"brainprint/internal/synth"
	"brainprint/internal/tsne"
)

// DefaultDefenseTopFeatures is the targeted-noise feature budget
// DefenseSweep falls back to — the single definition site shared with
// the facade's compatibility wrapper.
const DefaultDefenseTopFeatures = 200

// DefaultDefenseSigmas returns the noise grid DefenseSweep falls back
// to (a fresh slice per call; callers may mutate it).
func DefaultDefenseSigmas() []float64 { return []float64{0.05, 0.15, 0.3} }

// DefenseRow is one cell of the defense sweep: a strategy at a noise
// level, with the privacy and utility outcomes.
type DefenseRow struct {
	Strategy defense.Strategy // where the noise budget is spent
	Sigma    float64          // noise level
	// IdentificationAcc is the attacker's accuracy on the protected
	// release (privacy: lower is better for the publisher).
	IdentificationAcc float64
	// TaskAcc is the t-SNE task-prediction accuracy on the protected
	// release (utility proxy: higher is better).
	TaskAcc float64
	// Distortion is the relative Frobenius change of the release.
	Distortion float64
	// ClusteringShift is the mean absolute change of the Onnela weighted
	// clustering coefficient across sampled subjects — a graph-level
	// utility check (connectomic analyses must survive protection).
	ClusteringShift float64
}

// DefenseResult is the full privacy/utility sweep of the §4 defense.
type DefenseResult struct {
	Rows []DefenseRow // one per strategy × sigma
}

// Render prints the sweep as a table.
func (r *DefenseResult) Render() string {
	headers := []string{"strategy", "sigma", "distortion", "ident-acc (privacy)", "task-acc (utility)", "clustering-shift"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy.String(),
			fmt.Sprintf("%.2f", row.Sigma),
			fmt.Sprintf("%.3f", row.Distortion),
			report.Percent(row.IdentificationAcc),
			report.Percent(row.TaskAcc),
			fmt.Sprintf("%.4f", row.ClusteringShift),
		})
	}
	return "Defense (§4): targeted vs uniform noise at matched distortion budget\n" + report.Table(headers, rows)
}

// DefenseSweep evaluates the paper's §4 defense idea: the publisher
// perturbs the to-be-released dataset (the anonymous R-L resting scans)
// either on its top-leverage features (targeted) or uniformly, at the
// same total distortion budget. For each configuration we measure the
// attacker's identification accuracy (privacy) and the task-prediction
// accuracy across all conditions (a utility proxy: the data must stay
// analyzable).
func DefenseSweep(ctx context.Context, c *synth.HCPCohort, sigmas []float64, topFeatures int, attackCfg core.AttackConfig, seed int64) (*DefenseResult, error) {
	if len(sigmas) == 0 {
		sigmas = DefaultDefenseSigmas()
	}
	if topFeatures <= 0 {
		topFeatures = DefaultDefenseTopFeatures
	}

	// Attacker side: known group from REST1-LR.
	knownScans, err := c.ScansFor(synth.Rest1, synth.LR)
	if err != nil {
		return nil, err
	}
	known, err := BuildGroupMatrix(ctx, knownScans, connectome.Options{Parallelism: attackCfg.Parallelism})
	if err != nil {
		return nil, err
	}
	// Publisher side: the release is REST2-RL.
	anonScans, err := c.ScansFor(synth.Rest2, synth.RL)
	if err != nil {
		return nil, err
	}
	anon, err := BuildGroupMatrix(ctx, anonScans, connectome.Options{Parallelism: attackCfg.Parallelism})
	if err != nil {
		return nil, err
	}

	// Utility evaluation set: per-condition scans of the release
	// encoding, used for task prediction after protection.
	conds := synth.TaskConditions
	var vecs [][]float64
	var labels []int
	for ci, task := range conds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scans, err := c.ScansFor(task, synth.RL)
		if err != nil {
			return nil, err
		}
		for _, s := range scans {
			con, err := connectome.FromRegionSeries(s.Series, connectome.Options{Parallelism: attackCfg.Parallelism})
			if err != nil {
				return nil, err
			}
			vecs = append(vecs, con.Vectorize())
			labels = append(labels, ci)
		}
	}
	taskPoints, err := connectome.GroupMatrixFromVectors(vecs)
	if err != nil {
		return nil, err
	}

	// The sigma×strategy grid fans out whole cells (a cell spans the
	// protected release, the attack on it, and the t-SNE utility run —
	// the dominant cost). Each cell's noise comes from an RNG derived
	// from (seed, sigma index, strategy index), so the sweep is
	// bit-identical at every parallelism setting.
	strategies := []defense.Strategy{defense.Targeted, defense.Uniform}
	rows := make([]DefenseRow, len(sigmas)*len(strategies))
	cellCfg := attackCfg
	if parallel.Workers(attackCfg.Parallelism) > 1 {
		cellCfg.Parallelism = 1
	}
	err = parallel.ForCtx(ctx, attackCfg.Parallelism, len(rows), 1, func(lo, hi int) error {
		for cell := lo; cell < hi; cell++ {
			si, sti := cell/len(strategies), cell%len(strategies)
			sigma, strategy := sigmas[si], strategies[sti]
			rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, int64(si), int64(sti))))
			prot, err := defense.Protect(anon, strategy, topFeatures, sigma, rng)
			if err != nil {
				return err
			}
			defense.ClampCorrelations(prot.Protected)
			attack, err := core.DeanonymizeCtx(ctx, known, prot.Protected, cellCfg)
			if err != nil {
				return err
			}

			// Utility: protect the task points the same way and measure
			// task prediction. (The publisher applies the same mechanism
			// to every released scan.)
			protTask, err := defense.Protect(taskPoints, strategy, topFeatures, sigma, rng)
			if err != nil {
				return err
			}
			defense.ClampCorrelations(protTask.Protected)
			knownMask := make([]bool, len(labels))
			for i := range knownMask {
				knownMask[i] = i%2 == 0
			}
			taskInput := protTask.Protected.T()
			// As in Figure6, paper-scale feature spaces are reduced with a
			// JL random projection before the t-SNE utility evaluation.
			if _, d := taskInput.Dims(); d > 12000 {
				taskInput, err = tsne.RandomProjection(taskInput, 512, seed+1)
				if err != nil {
					return err
				}
			}
			taskRes, err := core.TaskPredictCtx(ctx, taskInput, labels, knownMask, core.TaskPredictConfig{
				TSNE: tsne.Config{Perplexity: 15, Iterations: 200, Seed: seed},
			})
			if err != nil {
				return err
			}
			shift, err := clusteringShift(anon, prot.Protected, c.Params.Regions)
			if err != nil {
				return err
			}
			rows[cell] = DefenseRow{
				Strategy:          strategy,
				Sigma:             sigma,
				IdentificationAcc: attack.Accuracy,
				TaskAcc:           taskRes.Accuracy,
				Distortion:        prot.Distortion,
				ClusteringShift:   shift,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &DefenseResult{Rows: rows}, nil
}

// clusteringShift measures the mean absolute change of the Onnela
// weighted clustering coefficient between the original and protected
// connectomes of up to five subjects — the graph-utility metric of the
// defense table.
func clusteringShift(orig, prot *linalg.Matrix, regions int) (float64, error) {
	_, subjects := orig.Dims()
	sample := subjects
	if sample > 5 {
		sample = 5
	}
	var total float64
	var count int
	for s := 0; s < sample; s++ {
		co, err := connectome.FromVector(orig.Col(s), regions)
		if err != nil {
			return 0, err
		}
		cp, err := connectome.FromVector(prot.Col(s), regions)
		if err != nil {
			return 0, err
		}
		ccO := co.ClusteringCoefficients()
		ccP := cp.ClusteringCoefficients()
		for i := range ccO {
			total += math.Abs(ccO[i] - ccP[i])
			count++
		}
	}
	if count == 0 {
		return 0, nil
	}
	return total / float64(count), nil
}
