package experiments

import (
	"context"
	"fmt"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/report"
	"brainprint/internal/synth"
)

// Table1Result holds per-task performance-prediction errors, the rows of
// the paper's Table 1.
type Table1Result struct {
	Tasks []synth.Task                           // table row order
	Rows  map[synth.Task]*core.PerformanceResult // prediction error per task
}

// Render prints the table in the paper's format.
func (r *Table1Result) Render() string {
	headers := []string{"Task", "Train nRMSE (%)", "Test nRMSE (%)"}
	var rows [][]string
	for _, t := range r.Tasks {
		res := r.Rows[t]
		rows = append(rows, []string{t.String(), res.TrainNRMSE.String(), res.TestNRMSE.String()})
	}
	return "Table 1: task-wise performance prediction error (normalized RMSE)\n" + report.Table(headers, rows)
}

// Table1 reproduces §3.3.3: for each task with a performance metric,
// regress the scores on leverage-selected connectome features of the
// L-R scans over repeated random 80/20 splits.
func Table1(ctx context.Context, c *synth.HCPCohort, cfg core.PerformanceConfig) (*Table1Result, error) {
	out := &Table1Result{
		Tasks: synth.PerformanceTasks,
		Rows:  make(map[synth.Task]*core.PerformanceResult, len(synth.PerformanceTasks)),
	}
	for _, task := range out.Tasks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scans, err := c.ScansFor(task, synth.LR)
		if err != nil {
			return nil, err
		}
		group, err := BuildGroupMatrix(ctx, scans, connectome.Options{})
		if err != nil {
			return nil, err
		}
		scores, ok := c.Performance[task]
		if !ok {
			return nil, fmt.Errorf("experiments: cohort has no performance scores for %v", task)
		}
		res, err := core.PerformancePredict(group, scores, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v: %w", task, err)
		}
		out.Rows[task] = res
	}
	return out, nil
}
