package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/linalg"
	"brainprint/internal/report"
	"brainprint/internal/synth"
	"brainprint/internal/tsne"
)

// TaskClusterResult is the Figure 6 outcome: the t-SNE embedding of
// every scan (one per subject per condition), the task-prediction
// accuracy via nearest known neighbour, and per-task accuracies.
type TaskClusterResult struct {
	Conditions []synth.Task           // task label i is Conditions[i]
	Embedding  *linalg.Matrix         // scans × 2 t-SNE coordinates
	Labels     []int                  // true task label per scan
	Known      []bool                 // scans whose label the attacker knows
	KL         float64                // final t-SNE KL divergence
	Accuracy   float64                // task-prediction accuracy on unknown scans
	PerTask    map[synth.Task]float64 // that accuracy per task
}

// Render prints the cluster scatter and the accuracy summary.
func (r *TaskClusterResult) Render() string {
	s := "Figure 6: t-SNE clustering of scans by task\nlegend: "
	for i, t := range r.Conditions {
		s += fmt.Sprintf("%d=%s ", i, t)
	}
	s += "\n"
	s += report.Scatter(r.Embedding, r.Labels, 72, 26)
	s += fmt.Sprintf("task prediction accuracy (anonymous scans): %s\n", report.Percent(r.Accuracy))
	for _, t := range r.Conditions {
		if acc, ok := r.PerTask[t]; ok {
			s += fmt.Sprintf("  %-10s %s\n", t.String(), report.Percent(acc))
		}
	}
	s += fmt.Sprintf("final KL divergence: %.3f\n", r.KL)
	return s
}

// Figure6 reproduces §3.3.2: stack one scan per subject per condition
// (L-R encodings; 100 subjects × 8 conditions = 800 rows in the paper),
// embed with t-SNE, and predict the task of anonymous scans from their
// nearest labelled neighbour. knownFraction of scans (stratified per
// condition) keep their labels, matching the paper's 50 known subjects.
func Figure6(ctx context.Context, c *synth.HCPCohort, knownFraction float64, tcfg tsne.Config, seed int64) (*TaskClusterResult, error) {
	if knownFraction <= 0 || knownFraction >= 1 {
		knownFraction = 0.5
	}
	conds := synth.TaskConditions
	var vecs [][]float64
	var labels []int
	for ci, task := range conds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scans, err := c.ScansFor(task, synth.LR)
		if err != nil {
			return nil, err
		}
		for _, s := range scans {
			con, err := connectome.FromRegionSeries(s.Series, connectome.Options{})
			if err != nil {
				return nil, err
			}
			vecs = append(vecs, con.Vectorize())
			labels = append(labels, ci)
		}
	}
	points, err := connectome.GroupMatrixFromVectors(vecs)
	if err != nil {
		return nil, err
	}
	pointsT := points.T() // rows = scans
	// At paper scale the feature space is huge (64620 dims for 360
	// regions); a Johnson-Lindenstrauss sparse random projection keeps
	// the pairwise distances t-SNE consumes while making the embedding
	// tractable.
	if _, d := pointsT.Dims(); d > 12000 {
		pointsT, err = tsne.RandomProjection(pointsT, 512, seed+1)
		if err != nil {
			return nil, err
		}
	}
	// Known mask: the same random subject subset across all conditions,
	// as the paper assumes the attacker knows the labels of 50 subjects.
	rng := rand.New(rand.NewSource(seed))
	subjects := c.Params.Subjects
	knownSubject := make([]bool, subjects)
	perm := rng.Perm(subjects)
	for i := 0; i < int(knownFraction*float64(subjects)+0.5) && i < subjects; i++ {
		knownSubject[perm[i]] = true
	}
	known := make([]bool, len(labels))
	for i := range known {
		known[i] = knownSubject[i%subjects]
	}
	res, err := core.TaskPredictCtx(ctx, pointsT, labels, known, core.TaskPredictConfig{TSNE: tcfg})
	if err != nil {
		return nil, err
	}
	perTask := make(map[synth.Task]float64, len(conds))
	for ci, t := range conds {
		if acc, ok := res.PerLabel[ci]; ok {
			perTask[t] = acc
		}
	}
	return &TaskClusterResult{
		Conditions: conds,
		Embedding:  res.Embedding,
		Labels:     labels,
		Known:      known,
		KL:         res.KL,
		Accuracy:   res.Accuracy,
		PerTask:    perTask,
	}, nil
}
