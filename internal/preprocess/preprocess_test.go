package preprocess

import (
	"math"
	"math/rand"
	"testing"

	"brainprint/internal/atlas"
	"brainprint/internal/fmri"
	"brainprint/internal/signal"
	"brainprint/internal/stats"
)

// makePhantom builds a small test phantom.
func makePhantom(t *testing.T, n int, seed int64) (*fmri.Phantom, *rand.Rand) {
	t.Helper()
	g, err := fmri.NewGrid(n, n, n, 2)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	ph, err := fmri.NewPhantom(g, fmri.DefaultPhantomParams(), rng)
	if err != nil {
		t.Fatalf("NewPhantom: %v", err)
	}
	return ph, rng
}

// smoothActivity builds slow sinusoidal region activity inside the
// haemodynamic band.
func smoothActivity(regions, frames int, tr float64, rng *rand.Rand) [][]float64 {
	out := make([][]float64, regions)
	for r := range out {
		f1 := 0.01 + 0.08*rng.Float64() // Hz, inside 0.008–0.1
		phase := rng.Float64() * 2 * math.Pi
		s := make([]float64, frames)
		for t := 0; t < frames; t++ {
			s[t] = math.Sin(2*math.Pi*f1*float64(t)*tr + phase)
		}
		out[r] = s
	}
	return out
}

func TestSkullStripRecoversBrainMask(t *testing.T) {
	ph, rng := makePhantom(t, 16, 1)
	labels := make([]int, ph.NumBrainVoxels())
	act := &fmri.RegionActivity{Labels: labels, Series: [][]float64{make([]float64, 8)}}
	p := fmri.AcquisitionParams{TR: 1, Frames: 8, ThermalNoise: 0.005}
	s, _, err := fmri.Acquire(ph, act, p, rng)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx := &Context{}
	if _, err := (&SkullStrip{}).Apply(s, ctx); err != nil {
		t.Fatalf("SkullStrip: %v", err)
	}
	if ctx.BrainMask == nil {
		t.Fatal("no mask produced")
	}
	// Compare against ground truth: count agreement.
	var tp, fp, fn int
	for i, got := range ctx.BrainMask {
		truth := ph.BrainMask[i]
		switch {
		case got && truth:
			tp++
		case got && !truth:
			fp++
		case !got && truth:
			fn++
		}
	}
	dice := 2 * float64(tp) / float64(2*tp+fp+fn)
	if dice < 0.90 {
		t.Errorf("skull strip Dice = %.3f want >= 0.90 (tp=%d fp=%d fn=%d)", dice, tp, fp, fn)
	}
	// Skull voxels must be zeroed.
	for i, isSkull := range ph.SkullMask {
		if isSkull && !ctx.BrainMask[i] && s.Frames[0].Data[i] != 0 {
			t.Fatal("skull voxel not masked")
		}
	}
}

func TestMotionCorrectRecoversShift(t *testing.T) {
	ph, rng := makePhantom(t, 16, 2)
	labels := make([]int, ph.NumBrainVoxels())
	act := &fmri.RegionActivity{Labels: labels, Series: [][]float64{make([]float64, 6)}}
	p := fmri.AcquisitionParams{TR: 1, Frames: 6}
	s, _, err := fmri.Acquire(ph, act, p, rng)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Inject a known shift into frames 3..5.
	trueShift := 1.0
	for f := 3; f < 6; f++ {
		s.Frames[f] = s.Frames[f].Shifted(trueShift, 0, 0)
	}
	ctx := &Context{}
	if _, err := (&MotionCorrect{SearchRadius: 2}).Apply(s, ctx); err != nil {
		t.Fatalf("MotionCorrect: %v", err)
	}
	for f := 3; f < 6; f++ {
		if math.Abs(ctx.Motion.DX[f]-trueShift) > 0.3 {
			t.Errorf("frame %d: estimated dx=%.2f want %.2f", f, ctx.Motion.DX[f], trueShift)
		}
	}
	for f := 1; f < 3; f++ {
		if math.Abs(ctx.Motion.DX[f]) > 0.3 {
			t.Errorf("frame %d: spurious shift %.2f", f, ctx.Motion.DX[f])
		}
	}
}

func TestBiasCorrectFlattensField(t *testing.T) {
	ph, rng := makePhantom(t, 16, 3)
	labels := make([]int, ph.NumBrainVoxels())
	act := &fmri.RegionActivity{Labels: labels, Series: [][]float64{make([]float64, 6)}}
	// Strong bias, no other artifacts, no baseline noise.
	p := fmri.AcquisitionParams{TR: 1, Frames: 6, BiasStrength: 0.4}
	s, _, err := fmri.Acquire(ph, act, p, rng)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Coefficient of variation of brain intensities before and after.
	cv := func(vol *fmri.Volume) float64 {
		var vals []float64
		for _, idx := range ph.BrainVoxel {
			vals = append(vals, vol.Data[idx])
		}
		return stats.StdDev(vals) / stats.Mean(vals)
	}
	before := cv(s.MeanVolume())
	ctx := &Context{BrainMask: ph.BrainMask}
	if _, err := (&BiasCorrect{SigmaVoxels: 4}).Apply(s, ctx); err != nil {
		t.Fatalf("BiasCorrect: %v", err)
	}
	after := cv(s.MeanVolume())
	if after >= before {
		t.Errorf("bias correction did not reduce intensity variation: %.4f -> %.4f", before, after)
	}
}

func TestRegisterNormalizesHeadSize(t *testing.T) {
	// Two phantoms with different brain scales must land on masks of
	// similar size after registration.
	target := fmri.MNIGrid(16)
	sizes := make([]int, 2)
	for i, scale := range []float64{0.55, 0.8} {
		g, _ := fmri.NewGrid(16, 16, 16, 2)
		rng := rand.New(rand.NewSource(int64(40 + i)))
		pp := fmri.DefaultPhantomParams()
		pp.BrainScale = scale
		ph, err := fmri.NewPhantom(g, pp, rng)
		if err != nil {
			t.Fatalf("NewPhantom: %v", err)
		}
		labels := make([]int, ph.NumBrainVoxels())
		act := &fmri.RegionActivity{Labels: labels, Series: [][]float64{make([]float64, 4)}}
		s, _, err := fmri.Acquire(ph, act, fmri.AcquisitionParams{TR: 1, Frames: 4}, rng)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		ctx := &Context{BrainMask: ph.BrainMask}
		out, err := (&Register{Target: target}).Apply(s, ctx)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		if out.Grid != target {
			t.Fatal("output not on target grid")
		}
		n := 0
		for _, b := range ctx.BrainMask {
			if b {
				n++
			}
		}
		sizes[i] = n
	}
	ratio := float64(sizes[0]) / float64(sizes[1])
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("registered mask sizes differ too much: %d vs %d (ratio %.2f)", sizes[0], sizes[1], ratio)
	}
}

func TestRegisterRequiresMask(t *testing.T) {
	g, _ := fmri.NewGrid(8, 8, 8, 2)
	s, _ := fmri.NewSeries(g, 1, 2)
	if _, err := (&Register{Target: g}).Apply(s, &Context{}); err == nil {
		t.Error("expected error without mask")
	}
}

func TestTemporalFilterRemovesDrift(t *testing.T) {
	g, _ := fmri.NewGrid(4, 4, 4, 2)
	s, _ := fmri.NewSeries(g, 0.72, 256)
	// Voxel 0: in-band sine plus strong linear drift.
	series := make([]float64, 256)
	for i := range series {
		series[i] = math.Sin(2*math.Pi*0.05*float64(i)*0.72) + 0.05*float64(i)
	}
	s.SetVoxelSeries(0, series)
	ctx := &Context{}
	if _, err := (&TemporalFilter{LowHz: 0.008, HighHz: 0.1}).Apply(s, ctx); err != nil {
		t.Fatalf("TemporalFilter: %v", err)
	}
	got := s.VoxelSeries(0)
	// Compare against the pure sine: correlation should be high.
	want := make([]float64, 256)
	for i := range want {
		want[i] = math.Sin(2 * math.Pi * 0.05 * float64(i) * 0.72)
	}
	r, _ := stats.Pearson(got, want)
	if r < 0.95 {
		t.Errorf("filtered series correlation with clean sine = %.3f", r)
	}
}

func TestGlobalSignalRegressRemovesSharedComponent(t *testing.T) {
	g, _ := fmri.NewGrid(3, 3, 3, 2)
	frames := 128
	s, _ := fmri.NewSeries(g, 0.72, frames)
	rng := rand.New(rand.NewSource(5))
	shared := make([]float64, frames)
	for t2 := range shared {
		shared[t2] = math.Sin(2 * math.Pi * 0.03 * float64(t2) * 0.72)
	}
	for idx := 0; idx < g.NumVoxels(); idx++ {
		v := make([]float64, frames)
		for t2 := range v {
			v[t2] = shared[t2] + 0.3*rng.NormFloat64()
		}
		s.SetVoxelSeries(idx, v)
	}
	ctx := &Context{}
	if _, err := (&GlobalSignalRegress{}).Apply(s, ctx); err != nil {
		t.Fatalf("GSR: %v", err)
	}
	// After GSR, voxel series should be nearly orthogonal to the shared
	// component.
	for idx := 0; idx < g.NumVoxels(); idx++ {
		r, _ := stats.Pearson(s.VoxelSeries(idx), shared)
		if math.Abs(r) > 0.35 {
			t.Fatalf("voxel %d still correlates %.2f with global signal", idx, r)
		}
	}
}

func TestZScoreVoxels(t *testing.T) {
	g, _ := fmri.NewGrid(2, 2, 2, 2)
	s, _ := fmri.NewSeries(g, 1, 50)
	rng := rand.New(rand.NewSource(6))
	for idx := 0; idx < g.NumVoxels(); idx++ {
		v := make([]float64, 50)
		for t2 := range v {
			v[t2] = 5 + 3*rng.NormFloat64()
		}
		s.SetVoxelSeries(idx, v)
	}
	ctx := &Context{}
	if _, err := (&ZScoreVoxels{}).Apply(s, ctx); err != nil {
		t.Fatalf("ZScoreVoxels: %v", err)
	}
	for idx := 0; idx < g.NumVoxels(); idx++ {
		v := s.VoxelSeries(idx)
		if math.Abs(stats.Mean(v)) > 1e-9 || math.Abs(stats.StdDev(v)-1) > 1e-9 {
			t.Fatalf("voxel %d not standardized", idx)
		}
	}
}

func TestPipelineRunsAllStepsAndLogs(t *testing.T) {
	ph, rng := makePhantom(t, 14, 7)
	a := atlas.SymmetricAtlas("t", 8)
	labels := a.LabelVoxels(ph)
	series := smoothActivity(8, 48, 0.72, rng)
	act := &fmri.RegionActivity{Labels: labels, Series: series}
	p := fmri.DefaultAcquisitionParams()
	p.Frames = 48
	p.MotionMax = 0.4
	raw, _, err := fmri.Acquire(ph, act, p, rng)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	pipe := Default(fmri.MNIGrid(14))
	out, ctx, err := pipe.Run(raw)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ctx.Log) != len(pipe.Steps) {
		t.Errorf("log has %d entries want %d", len(ctx.Log), len(pipe.Steps))
	}
	if out.Grid.NX != 14 {
		t.Error("output not on target grid")
	}
	// Input untouched.
	if raw.Frames[0].Data[0] == 0 && raw.Frames[0].Mean() == 0 {
		t.Error("input series appears mutated")
	}
}

func TestPipelineEmptyInput(t *testing.T) {
	pipe := Default(fmri.MNIGrid(8))
	if _, _, err := pipe.Run(nil); err == nil {
		t.Error("expected error for nil series")
	}
}

// TestEndToEndSignalRecovery is the load-bearing integration test: a
// scan with every artifact enabled goes through the full pipeline and
// the region-averaged series must still correlate strongly with the
// latent activity that drove the simulation. This is what licenses the
// experiments to skip the voxel stage and work from region series
// directly (DESIGN.md, "Data substitution").
func TestEndToEndSignalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ph, rng := makePhantom(t, 16, 8)
	a := atlas.SymmetricAtlas("t", 10)
	labels := a.LabelVoxels(ph)
	frames := 96
	latent := smoothActivity(10, frames, 0.72, rng)
	act := &fmri.RegionActivity{Labels: labels, Series: latent, VoxelJitter: 0.2, Rng: rng}
	p := fmri.DefaultAcquisitionParams()
	p.Frames = frames
	p.MotionMax = 0.5
	p.BOLDAmplitude = 0.05
	raw, _, err := fmri.Acquire(ph, act, p, rng)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	pipe := Default(fmri.MNIGrid(16))
	out, ctx, err := pipe.Run(raw)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Re-parcellate on the registered grid: build a registered-space
	// phantom stand-in from the mask.
	var brainVoxels []int
	for i, b := range ctx.BrainMask {
		if b {
			brainVoxels = append(brainVoxels, i)
		}
	}
	// Label registered voxels through normalized coordinates of the
	// canonical grid.
	regLabels := make([]int, len(brainVoxels))
	tg := out.Grid
	cx, cy, cz := float64(tg.NX-1)/2, float64(tg.NY-1)/2, float64(tg.NZ-1)/2
	rx, ry, rz := 0.7*cx, 0.7*cy*1.1, 0.7*cz*0.95
	for ord, idx := range brainVoxels {
		x, y, z := tg.Coords(idx)
		regLabels[ord] = a.LabelPoint((float64(x)-cx)/rx, (float64(y)-cy)/ry, (float64(z)-cz)/rz)
	}
	regionSeries, err := atlas.ReduceSeries(out, brainVoxels, regLabels, a.NumRegions())
	if err != nil {
		t.Fatalf("ReduceSeries: %v", err)
	}
	// The recovered series for each region should correlate with the
	// latent activity driving that region. The first frames carry HRF-
	// free simulation directly, so compare against band-passed latent.
	good := 0
	for r := 0; r < a.NumRegions(); r++ {
		want, _ := signal.Bandpass(latent[r], 0.72, 0.008, 0.1)
		got := regionSeries.Row(r)
		if stats.StdDev(got) == 0 {
			continue // region lost in registration (tiny grids)
		}
		corr, _ := stats.Pearson(got, want)
		if corr > 0.5 {
			good++
		}
	}
	if good < a.NumRegions()*6/10 {
		t.Errorf("only %d/%d regions recovered latent signal", good, a.NumRegions())
	}
}
