package preprocess

import (
	"fmt"
	"time"

	"brainprint/internal/fmri"
	"brainprint/internal/signal"
	"brainprint/internal/stats"
)

// TemporalFilter bandpass-filters every brain voxel time series,
// retaining the haemodynamic band. The paper uses 0.008–0.1 Hz for
// resting state (§3.2.1).
type TemporalFilter struct {
	LowHz, HighHz float64
}

// Name implements Step.
func (f *TemporalFilter) Name() string { return "temporal-filter" }

// Apply implements Step.
func (f *TemporalFilter) Apply(s *fmri.Series, ctx *Context) (*fmri.Series, error) {
	start := time.Now()
	lo, hi := f.LowHz, f.HighHz
	if hi == 0 {
		lo, hi = 0.008, 0.1
	}
	n := 0
	for idx := 0; idx < s.Grid.NumVoxels(); idx++ {
		if ctx.BrainMask != nil && !ctx.BrainMask[idx] {
			continue
		}
		series := s.VoxelSeries(idx)
		signal.Detrend(series)
		filtered, err := signal.Bandpass(series, s.TR, lo, hi)
		if err != nil {
			return nil, err
		}
		s.SetVoxelSeries(idx, filtered)
		n++
	}
	ctx.record(f.Name(), fmt.Sprintf("band [%g, %g] Hz on %d voxels", lo, hi, n), time.Since(start))
	return nil, nil
}

// GlobalSignalRegress removes the component of every voxel series
// explained by the global (brain-mean) signal, the global signal
// regression step the paper applies to resting-state data (§3.2.1).
type GlobalSignalRegress struct{}

// Name implements Step.
func (g *GlobalSignalRegress) Name() string { return "global-signal-regression" }

// Apply implements Step.
func (g *GlobalSignalRegress) Apply(s *fmri.Series, ctx *Context) (*fmri.Series, error) {
	start := time.Now()
	global := s.GlobalSignal(ctx.BrainMask)
	gm := stats.Mean(global)
	centered := make([]float64, len(global))
	var gss float64
	for i, v := range global {
		centered[i] = v - gm
		gss += centered[i] * centered[i]
	}
	if gss == 0 {
		ctx.record(g.Name(), "constant global signal; skipped", time.Since(start))
		return nil, nil
	}
	for idx := 0; idx < s.Grid.NumVoxels(); idx++ {
		if ctx.BrainMask != nil && !ctx.BrainMask[idx] {
			continue
		}
		series := s.VoxelSeries(idx)
		m := stats.Mean(series)
		var dot float64
		for t, v := range series {
			dot += (v - m) * centered[t]
		}
		beta := dot / gss
		for t := range series {
			series[t] -= beta * centered[t]
		}
		s.SetVoxelSeries(idx, series)
	}
	ctx.record(g.Name(), "", time.Since(start))
	return nil, nil
}

// ZScoreVoxels standardizes every brain voxel time series to zero mean
// and unit variance, the final normalization of §3.1.1.
type ZScoreVoxels struct{}

// Name implements Step.
func (z *ZScoreVoxels) Name() string { return "zscore" }

// Apply implements Step.
func (z *ZScoreVoxels) Apply(s *fmri.Series, ctx *Context) (*fmri.Series, error) {
	start := time.Now()
	for idx := 0; idx < s.Grid.NumVoxels(); idx++ {
		if ctx.BrainMask != nil && !ctx.BrainMask[idx] {
			continue
		}
		series := s.VoxelSeries(idx)
		stats.ZScore(series)
		s.SetVoxelSeries(idx, series)
	}
	ctx.record(z.Name(), "", time.Since(start))
	return nil, nil
}
