package connectome

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"brainprint/internal/linalg"
)

func randomSeries(rng *rand.Rand, regions, frames int) *linalg.Matrix {
	m := linalg.NewMatrix(regions, frames)
	for i := 0; i < regions; i++ {
		for t := 0; t < frames; t++ {
			m.Set(i, t, rng.NormFloat64())
		}
	}
	return m
}

func TestFromRegionSeriesBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := randomSeries(rng, 8, 100)
	c, err := FromRegionSeries(series, Options{})
	if err != nil {
		t.Fatalf("FromRegionSeries: %v", err)
	}
	if c.NumRegions() != 8 {
		t.Fatalf("regions = %d", c.NumRegions())
	}
	// Unit diagonal, symmetric, entries in [−1, 1].
	for i := 0; i < 8; i++ {
		if c.C.At(i, i) != 1 {
			t.Errorf("diagonal (%d,%d) = %v", i, i, c.C.At(i, i))
		}
		for j := 0; j < 8; j++ {
			v := c.C.At(i, j)
			if v < -1 || v > 1 {
				t.Errorf("correlation out of range: %v", v)
			}
			if c.C.At(j, i) != v {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromRegionSeriesPerfectCorrelation(t *testing.T) {
	series := linalg.NewMatrix(2, 4)
	series.SetRow(0, []float64{1, 2, 3, 4})
	series.SetRow(1, []float64{2, 4, 6, 8}) // perfectly correlated
	c, err := FromRegionSeries(series, Options{})
	if err != nil {
		t.Fatalf("FromRegionSeries: %v", err)
	}
	if math.Abs(c.C.At(0, 1)-1) > 1e-12 {
		t.Errorf("correlation = %v want 1", c.C.At(0, 1))
	}
}

func TestFromRegionSeriesAntiCorrelation(t *testing.T) {
	series := linalg.NewMatrix(2, 4)
	series.SetRow(0, []float64{1, 2, 3, 4})
	series.SetRow(1, []float64{4, 3, 2, 1})
	c, _ := FromRegionSeries(series, Options{})
	if math.Abs(c.C.At(0, 1)+1) > 1e-12 {
		t.Errorf("correlation = %v want -1", c.C.At(0, 1))
	}
}

func TestFromRegionSeriesConstantRow(t *testing.T) {
	series := linalg.NewMatrix(2, 4)
	series.SetRow(0, []float64{5, 5, 5, 5}) // empty-region stand-in
	series.SetRow(1, []float64{1, 2, 3, 4})
	c, err := FromRegionSeries(series, Options{})
	if err != nil {
		t.Fatalf("FromRegionSeries: %v", err)
	}
	if c.C.At(0, 1) != 0 {
		t.Errorf("constant row should correlate 0, got %v", c.C.At(0, 1))
	}
	if c.C.At(0, 0) != 1 {
		t.Error("diagonal should stay 1")
	}
}

func TestFromRegionSeriesErrors(t *testing.T) {
	if _, err := FromRegionSeries(linalg.NewMatrix(0, 5), Options{}); err == nil {
		t.Error("expected error for 0 regions")
	}
	if _, err := FromRegionSeries(linalg.NewMatrix(3, 1), Options{}); err == nil {
		t.Error("expected error for 1 time point")
	}
}

func TestFisherZOption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series := randomSeries(rng, 4, 50)
	plain, _ := FromRegionSeries(series, Options{})
	fz, _ := FromRegionSeries(series, Options{FisherZ: true})
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			want := math.Atanh(plain.C.At(i, j))
			if math.Abs(fz.C.At(i, j)-want) > 1e-9 {
				t.Errorf("FisherZ (%d,%d) = %v want %v", i, j, fz.C.At(i, j), want)
			}
		}
	}
}

func TestVectorizeOrderAndLength(t *testing.T) {
	c := &Connectome{C: linalg.NewMatrix(3, 3)}
	c.C.Set(0, 1, 12)
	c.C.Set(1, 0, 12)
	c.C.Set(0, 2, 13)
	c.C.Set(2, 0, 13)
	c.C.Set(1, 2, 23)
	c.C.Set(2, 1, 23)
	v := c.Vectorize()
	if len(v) != 3 {
		t.Fatalf("len = %d want 3", len(v))
	}
	if v[0] != 12 || v[1] != 13 || v[2] != 23 {
		t.Errorf("vectorize order wrong: %v", v)
	}
}

func TestEdgeIndexRoundTrip(t *testing.T) {
	// Vectorize walks the upper triangle row by row, so the k-th pair in
	// that order sits at index k.
	n := 10
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi, gj, err := EdgeFromIndex(n, idx)
			if err != nil || gi != i || gj != j {
				t.Fatalf("EdgeFromIndex(%d) = (%d,%d,%v) want (%d,%d)", idx, gi, gj, err, i, j)
			}
			idx++
		}
	}
	if idx != n*(n-1)/2 {
		t.Fatalf("covered %d indices want %d", idx, n*(n-1)/2)
	}
}

func TestEdgeIndexErrors(t *testing.T) {
	if _, _, err := EdgeFromIndex(5, -1); err == nil {
		t.Error("expected error for negative index")
	}
	if _, _, err := EdgeFromIndex(5, 10); err == nil {
		t.Error("expected error for out-of-range index")
	}
}

func TestGroupMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var cons []*Connectome
	for s := 0; s < 5; s++ {
		c, err := FromRegionSeries(randomSeries(rng, 6, 40), Options{})
		if err != nil {
			t.Fatalf("FromRegionSeries: %v", err)
		}
		cons = append(cons, c)
	}
	g, err := GroupMatrix(cons)
	if err != nil {
		t.Fatalf("GroupMatrix: %v", err)
	}
	if r, c := g.Dims(); r != 15 || c != 5 {
		t.Fatalf("dims = %dx%d want 15x5", r, c)
	}
	// Column s must equal subject s's vectorized connectome.
	v := cons[2].Vectorize()
	for i, want := range v {
		if g.At(i, 2) != want {
			t.Fatalf("column mismatch at feature %d", i)
		}
	}
}

func TestGroupMatrixErrors(t *testing.T) {
	if _, err := GroupMatrix(nil); err == nil {
		t.Error("expected error for empty group")
	}
	rng := rand.New(rand.NewSource(4))
	a, _ := FromRegionSeries(randomSeries(rng, 4, 30), Options{})
	b, _ := FromRegionSeries(randomSeries(rng, 5, 30), Options{})
	if _, err := GroupMatrix([]*Connectome{a, b}); err == nil {
		t.Error("expected error for mismatched region counts")
	}
}

func TestGroupMatrixFromVectors(t *testing.T) {
	g, err := GroupMatrixFromVectors([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("GroupMatrixFromVectors: %v", err)
	}
	if g.At(0, 1) != 3 || g.At(1, 0) != 2 {
		t.Errorf("layout wrong: %v", g)
	}
	if _, err := GroupMatrixFromVectors(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := GroupMatrixFromVectors([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("expected error for ragged input")
	}
}

// Property: vectorization length always equals n(n−1)/2 and the edge
// index mapping is a bijection onto it.
func TestQuickEdgeIndexBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		total := n * (n - 1) / 2
		idx := rng.Intn(total)
		i, j, err := EdgeFromIndex(n, idx)
		if err != nil || i >= j {
			return false
		}
		// Offset of row i in the packed triangle plus the column offset.
		return i*n-i*(i+1)/2+(j-i-1) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: connectome of any series is symmetric with entries in
// [−1, 1] (or the Fisher-z image of that interval).
func TestQuickConnectomeWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		regions := 2 + rng.Intn(8)
		frames := 3 + rng.Intn(40)
		c, err := FromRegionSeries(randomSeries(rng, regions, frames), Options{})
		if err != nil {
			return false
		}
		for i := 0; i < regions; i++ {
			for j := 0; j < regions; j++ {
				v := c.C.At(i, j)
				if v < -1-1e-9 || v > 1+1e-9 {
					return false
				}
				if math.Abs(v-c.C.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFromVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c, err := FromRegionSeries(randomSeries(rng, 7, 60), Options{})
	if err != nil {
		t.Fatalf("FromRegionSeries: %v", err)
	}
	back, err := FromVector(c.Vectorize(), 7)
	if err != nil {
		t.Fatalf("FromVector: %v", err)
	}
	if !back.C.EqualApprox(c.C, 1e-12) {
		t.Error("vectorize/FromVector round trip changed the connectome")
	}
}

func TestFromVectorValidation(t *testing.T) {
	if _, err := FromVector([]float64{1, 2}, 3); err == nil {
		t.Error("expected length error")
	}
	c, err := FromVector([]float64{0.5}, 2)
	if err != nil {
		t.Fatalf("FromVector: %v", err)
	}
	if c.C.At(0, 1) != 0.5 || c.C.At(1, 0) != 0.5 || c.C.At(0, 0) != 1 {
		t.Errorf("content wrong: %v", c.C)
	}
}
