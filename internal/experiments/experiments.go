// Package experiments regenerates every table and figure of the paper's
// evaluation (§3.3) on the synthetic cohorts: one driver function per
// experiment, each returning a structured result with a Render method
// that prints the same rows or picture the paper reports. DESIGN.md maps
// each driver to its paper artifact. The registry (registry.go) names
// every driver; Run dispatches by name under one core.AttackConfig, and
// the CLI's experiment list and usage text derive from it.
//
// Every driver takes a context.Context first: the grid sweeps and group
// builds underneath run on parallel.ForCtx, so a cancelled context
// aborts a running experiment between cells/scans and surfaces
// ctx.Err(). Results are bit-identical at any parallelism setting and
// unaffected by the context on success.
package experiments

import (
	"context"
	"fmt"

	"brainprint/internal/connectome"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/synth"
)

// BuildGroupMatrix converts HCP-like scans into the features×subjects
// group matrix of §3.1.1: each scan becomes a vectorized connectome
// column. Scans are independent, so their connectomes build concurrently
// under opt.Parallelism; the scan-pair sweep inside each build runs
// serially then, keeping the total worker count at the knob.
func BuildGroupMatrix(ctx context.Context, scans []*synth.Scan, opt connectome.Options) (*linalg.Matrix, error) {
	return buildGroup(ctx, len(scans), opt, func(i int) *linalg.Matrix { return scans[i].Series })
}

// BuildGroupMatrixADHD converts ADHD-like scans into a group matrix.
func BuildGroupMatrixADHD(ctx context.Context, scans []*synth.ADHDScan, opt connectome.Options) (*linalg.Matrix, error) {
	return buildGroup(ctx, len(scans), opt, func(i int) *linalg.Matrix { return scans[i].Series })
}

// buildGroup fans the per-scan connectome construction out over the
// scans and stacks the results in scan order. Cancellation aborts
// between scans.
func buildGroup(ctx context.Context, n int, opt connectome.Options, series func(i int) *linalg.Matrix) (*linalg.Matrix, error) {
	if n == 0 {
		return nil, fmt.Errorf("experiments: no scans")
	}
	// One layer of parallelism is enough: when scans fan out, each
	// per-scan correlation sweep stays serial.
	inner := opt
	if n > 1 && parallel.Workers(opt.Parallelism) > 1 {
		inner.Parallelism = 1
	}
	cons := make([]*connectome.Connectome, n)
	err := parallel.ForCtx(ctx, opt.Parallelism, n, 1, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			c, err := connectome.FromRegionSeries(series(i), inner)
			if err != nil {
				return fmt.Errorf("experiments: scan %d: %w", i, err)
			}
			cons[i] = c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return connectome.GroupMatrix(cons)
}
