package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/parallel"
	"brainprint/internal/report"
	"brainprint/internal/stats"
	"brainprint/internal/synth"
)

// Table2Result holds the multi-site noise sweep of the paper's Table 2:
// identification accuracy at each noise-variance level for the HCP-like
// and ADHD-like cohorts.
type Table2Result struct {
	Levels []float64       // noise variance fractions (0.1, 0.2, 0.3 in the paper)
	HCP    []stats.Summary // HCP-like accuracy per level
	ADHD   []stats.Summary // ADHD-like accuracy per level
}

// Render prints the table in the paper's format.
func (r *Table2Result) Render() string {
	headers := []string{"Noise Variance (%)", "HCP accuracy (%)", "ADHD-200 accuracy (%)"}
	var rows [][]string
	for i, l := range r.Levels {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", 100*l),
			r.HCP[i].String(),
			r.ADHD[i].String(),
		})
	}
	return "Table 2: identification accuracy under simulated multi-site acquisition\n" + report.Table(headers, rows)
}

// Table2 reproduces §3.3.5: Gaussian noise with mean equal to the signal
// mean and variance a fraction of the signal variance is added to every
// time series of the second session, connectomes are recomputed, and the
// identification attack is repeated. Each level is run `trials` times
// with fresh noise.
func Table2(ctx context.Context, hcp *synth.HCPCohort, adhd *synth.ADHDCohort, levels []float64, trials int, cfg core.AttackConfig, seed int64) (*Table2Result, error) {
	if len(levels) == 0 {
		levels = []float64{0.1, 0.2, 0.3}
	}
	if trials <= 0 {
		trials = 5
	}

	// Clean session-1 groups and raw session-2 scans.
	hcpKnownScans, err := hcp.ScansFor(synth.Rest1, synth.LR)
	if err != nil {
		return nil, err
	}
	hcpAnonScans, err := hcp.ScansFor(synth.Rest2, synth.RL)
	if err != nil {
		return nil, err
	}
	hcpKnown, err := BuildGroupMatrix(ctx, hcpKnownScans, connectome.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}

	allADHD := make([]int, adhd.Params.NumSubjects())
	for i := range allADHD {
		allADHD[i] = i
	}
	adhdS1, err := adhd.SessionScans(allADHD, 0)
	if err != nil {
		return nil, err
	}
	adhdS2, err := adhd.SessionScans(allADHD, 1)
	if err != nil {
		return nil, err
	}
	adhdKnown, err := BuildGroupMatrixADHD(ctx, adhdS1, connectome.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}

	// The level×trial grid fans out whole cells. Every cell draws its
	// noise from an RNG derived from (seed, level index, trial), so the
	// sweep is bit-identical at every parallelism setting — the stream a
	// cell sees no longer depends on how many cells ran before it.
	hcpAccs := make([]float64, len(levels)*trials)
	adhdAccs := make([]float64, len(levels)*trials)
	cellCfg := cfg
	if parallel.Workers(cfg.Parallelism) > 1 {
		cellCfg.Parallelism = 1
	}
	cellOpt := connectome.Options{Parallelism: cellCfg.Parallelism}
	err = parallel.ForCtx(ctx, cfg.Parallelism, len(levels)*trials, 1, func(lo, hi int) error {
		for cell := lo; cell < hi; cell++ {
			li, trial := cell/trials, cell%trials
			level := levels[li]
			rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, int64(li), int64(trial))))
			noisyHCP, err := synth.NoisyCopyHCP(hcpAnonScans, level, rng)
			if err != nil {
				return err
			}
			anon, err := BuildGroupMatrix(ctx, noisyHCP, cellOpt)
			if err != nil {
				return err
			}
			r, err := core.DeanonymizeCtx(ctx, hcpKnown, anon, cellCfg)
			if err != nil {
				return err
			}
			hcpAccs[cell] = 100 * r.Accuracy

			noisyADHD, err := synth.NoisyCopyADHD(adhdS2, level, rng)
			if err != nil {
				return err
			}
			anonA, err := BuildGroupMatrixADHD(ctx, noisyADHD, cellOpt)
			if err != nil {
				return err
			}
			rA, err := core.DeanonymizeCtx(ctx, adhdKnown, anonA, cellCfg)
			if err != nil {
				return err
			}
			adhdAccs[cell] = 100 * rA.Accuracy
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Levels: levels}
	for li := range levels {
		res.HCP = append(res.HCP, stats.Summarize(hcpAccs[li*trials:(li+1)*trials]))
		res.ADHD = append(res.ADHD, stats.Summarize(adhdAccs[li*trials:(li+1)*trials]))
	}
	return res, nil
}
