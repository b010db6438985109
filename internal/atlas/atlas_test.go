package atlas

import (
	"math"
	"math/rand"
	"testing"

	"brainprint/internal/fmri"
)

func TestGlasserLikeShape(t *testing.T) {
	a := GlasserLike()
	if a.NumRegions() != 360 {
		t.Fatalf("regions = %d want 360", a.NumRegions())
	}
	if a.NumEdges() != 64620 {
		t.Fatalf("edges = %d want 64620 (the paper's feature count)", a.NumEdges())
	}
	// Hemisphere symmetry: equal left/right counts, mirrored centres.
	var left, right int
	for _, r := range a.Regions {
		switch r.Hemisphere {
		case Left:
			left++
		case Right:
			right++
		}
	}
	if left != 180 || right != 180 {
		t.Errorf("hemisphere counts L=%d R=%d want 180/180", left, right)
	}
	for i := 0; i < len(a.Regions); i += 2 {
		r, l := a.Regions[i], a.Regions[i+1]
		if r.Center[0] != -l.Center[0] || r.Center[1] != l.Center[1] || r.Center[2] != l.Center[2] {
			t.Fatalf("regions %d/%d not mirrored", i, i+1)
		}
	}
}

func TestAALLikeShape(t *testing.T) {
	a := AALLike()
	if a.NumRegions() != 116 {
		t.Fatalf("regions = %d want 116", a.NumRegions())
	}
	if a.NumEdges() != 6670 {
		t.Fatalf("edges = %d want 6670 (matches §3.3.4)", a.NumEdges())
	}
}

func TestSymmetricAtlasDeterministic(t *testing.T) {
	a := SymmetricAtlas("x", 40)
	b := SymmetricAtlas("x", 40)
	for i := range a.Regions {
		if a.Regions[i].Center != b.Regions[i].Center {
			t.Fatal("SymmetricAtlas not deterministic")
		}
	}
}

func TestSymmetricAtlasPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for odd region count")
		}
	}()
	SymmetricAtlas("bad", 7)
}

func TestCentersInsideUnitBall(t *testing.T) {
	for _, a := range []*Atlas{GlasserLike(), AALLike()} {
		for _, r := range a.Regions {
			d := math.Sqrt(r.Center[0]*r.Center[0] + r.Center[1]*r.Center[1] + r.Center[2]*r.Center[2])
			if d > 1 {
				t.Fatalf("%s region %d centre outside unit ball (%.3f)", a.Name, r.ID, d)
			}
		}
	}
}

func TestLabelPointNearest(t *testing.T) {
	a := &Atlas{Name: "two", Regions: []Region{
		{ID: 0, Center: [3]float64{-0.5, 0, 0}},
		{ID: 1, Center: [3]float64{0.5, 0, 0}},
	}}
	if got := a.LabelPoint(-0.4, 0, 0); got != 0 {
		t.Errorf("LabelPoint left = %d want 0", got)
	}
	if got := a.LabelPoint(0.6, 0.1, 0); got != 1 {
		t.Errorf("LabelPoint right = %d want 1", got)
	}
}

func TestLabelVoxelsCoversAllRegionsOnDecentGrid(t *testing.T) {
	g, _ := fmri.NewGrid(20, 20, 20, 2)
	rng := rand.New(rand.NewSource(6))
	ph, err := fmri.NewPhantom(g, fmri.DefaultPhantomParams(), rng)
	if err != nil {
		t.Fatalf("NewPhantom: %v", err)
	}
	a := SymmetricAtlas("t", 20)
	labels := a.LabelVoxels(ph)
	if len(labels) != ph.NumBrainVoxels() {
		t.Fatalf("labels = %d, brain voxels = %d", len(labels), ph.NumBrainVoxels())
	}
	sizes := make([]int, a.NumRegions())
	for _, l := range labels {
		if l >= 0 && l < len(sizes) {
			sizes[l]++
		}
	}
	empty := 0
	for _, s := range sizes {
		if s == 0 {
			empty++
		}
	}
	// With 20 regions and ~2900 brain voxels every region should be hit.
	if empty > 0 {
		t.Errorf("%d empty regions on a 20-region atlas", empty)
	}
}

func TestReduceSeriesAverages(t *testing.T) {
	g, _ := fmri.NewGrid(4, 1, 1, 2)
	s, _ := fmri.NewSeries(g, 1, 3)
	// Voxels 0,1 belong to region 0; voxels 2,3 to region 1.
	brainVoxels := []int{0, 1, 2, 3}
	labels := []int{0, 0, 1, 1}
	s.SetVoxelSeries(0, []float64{1, 2, 3})
	s.SetVoxelSeries(1, []float64{3, 4, 5})
	s.SetVoxelSeries(2, []float64{10, 10, 10})
	s.SetVoxelSeries(3, []float64{20, 20, 20})
	m, err := ReduceSeries(s, brainVoxels, labels, 2)
	if err != nil {
		t.Fatalf("ReduceSeries: %v", err)
	}
	if m.At(0, 0) != 2 || m.At(0, 2) != 4 {
		t.Errorf("region 0 series wrong: %v", m.Row(0))
	}
	if m.At(1, 0) != 15 {
		t.Errorf("region 1 series wrong: %v", m.Row(1))
	}
}

func TestReduceSeriesErrors(t *testing.T) {
	g, _ := fmri.NewGrid(2, 1, 1, 2)
	s, _ := fmri.NewSeries(g, 1, 2)
	if _, err := ReduceSeries(s, []int{0, 1}, []int{0}, 1); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := ReduceSeries(s, []int{0}, []int{5}, 2); err == nil {
		t.Error("expected out-of-range label error")
	}
}

func TestReduceSeriesEmptyRegionIsZero(t *testing.T) {
	g, _ := fmri.NewGrid(2, 1, 1, 2)
	s, _ := fmri.NewSeries(g, 1, 2)
	s.SetVoxelSeries(0, []float64{5, 5})
	m, err := ReduceSeries(s, []int{0}, []int{0}, 3)
	if err != nil {
		t.Fatalf("ReduceSeries: %v", err)
	}
	if m.At(1, 0) != 0 || m.At(2, 1) != 0 {
		t.Error("empty regions should produce zero rows")
	}
}

func TestHemisphereString(t *testing.T) {
	if Left.String() != "L" || Right.String() != "R" || Midline.String() != "M" {
		t.Error("Hemisphere String wrong")
	}
}

func TestVoronoiPartitionIsTotal(t *testing.T) {
	// Every point in the ball gets exactly one label in range.
	a := AALLike()
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 200; {
		p := [3]float64{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
		if p[0]*p[0]+p[1]*p[1]+p[2]*p[2] > 1 {
			continue
		}
		k++
		l := a.LabelPoint(p[0], p[1], p[2])
		if l < 0 || l >= a.NumRegions() {
			t.Fatalf("label %d out of range", l)
		}
	}
}
