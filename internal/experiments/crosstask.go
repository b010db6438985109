package experiments

import (
	"context"
	"fmt"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/report"
	"brainprint/internal/synth"
)

// CrossTaskResult is the Figure 5 matrix: identification accuracy when
// the row condition is de-anonymized (L-R scans, with REST represented
// by REST1) and the column condition is anonymous (R-L scans, REST
// represented by REST2).
type CrossTaskResult struct {
	Conditions []synth.Task   // row and column order
	Accuracy   *linalg.Matrix // rows = known condition, cols = anonymous condition
}

// Render prints the accuracy matrix as a labelled table plus a heatmap.
func (r *CrossTaskResult) Render() string {
	headers := []string{"known \\ anon"}
	for _, t := range r.Conditions {
		headers = append(headers, t.String())
	}
	var rows [][]string
	for i, t := range r.Conditions {
		row := []string{t.String()}
		for j := range r.Conditions {
			row = append(row, report.Percent(r.Accuracy.At(i, j)))
		}
		rows = append(rows, row)
	}
	s := "Figure 5: identifiability of subjects across tasks\n"
	s += report.Table(headers, rows)
	s += report.Heatmap(r.Accuracy, nil, nil, 20)
	return s
}

// Figure5 reproduces the paper's Figure 5: for every pair of conditions
// (row = de-anonymized dataset, column = anonymous dataset), select the
// principal features subspace on the row group and measure the
// identification accuracy on the column group. The row group uses L-R
// encodings (REST1 for rest); the column group uses R-L encodings
// (REST2 for rest), exactly as §3.3.1 describes.
func Figure5(ctx context.Context, c *synth.HCPCohort, cfg core.AttackConfig) (*CrossTaskResult, error) {
	conds := synth.TaskConditions
	known := make([]*linalg.Matrix, len(conds))
	anon := make([]*linalg.Matrix, len(conds))
	// Per-condition group matrices build concurrently; each condition
	// writes only its own slots and builds its scans serially, so the
	// knob stays the total worker count instead of multiplying across
	// the two layers.
	buildOpt := connectome.Options{Parallelism: cfg.Parallelism}
	if parallel.Workers(cfg.Parallelism) > 1 {
		buildOpt.Parallelism = 1
	}
	err := parallel.ForCtx(ctx, cfg.Parallelism, len(conds), 1, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			t := conds[i]
			kt, at := t, t
			if t == synth.Rest1 {
				at = synth.Rest2
			}
			scansK, err := c.ScansFor(kt, synth.LR)
			if err != nil {
				return err
			}
			scansA, err := c.ScansFor(at, synth.RL)
			if err != nil {
				return err
			}
			if known[i], err = BuildGroupMatrix(ctx, scansK, buildOpt); err != nil {
				return err
			}
			if anon[i], err = BuildGroupMatrix(ctx, scansA, buildOpt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The grid cells are independent whole attacks; fan them out and let
	// each run its own similarity sweep serially so the knob stays the
	// total worker budget.
	cellCfg := cfg
	if parallel.Workers(cfg.Parallelism) > 1 {
		cellCfg.Parallelism = 1
	}
	acc := linalg.NewMatrix(len(conds), len(conds))
	raw := acc.RawData()
	cells := len(conds) * len(conds)
	err = parallel.ForCtx(ctx, cfg.Parallelism, cells, 1, func(lo, hi int) error {
		for cell := lo; cell < hi; cell++ {
			i, j := cell/len(conds), cell%len(conds)
			res, err := core.DeanonymizeCtx(ctx, known[i], anon[j], cellCfg)
			if err != nil {
				return fmt.Errorf("experiments: %v vs %v: %w", conds[i], conds[j], err)
			}
			raw[cell] = res.Accuracy
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &CrossTaskResult{Conditions: conds, Accuracy: acc}, nil
}
