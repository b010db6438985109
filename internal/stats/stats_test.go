package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Mean(x); got != 2.5 {
		t.Errorf("Mean = %v want 2.5", got)
	}
	if got := Variance(x); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v want 1.25", got)
	}
	if got := SampleVariance(x); !almostEqual(got, 5.0/3, 1e-12) {
		t.Errorf("SampleVariance = %v want 5/3", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || SampleVariance([]float64{1}) != 0 {
		t.Error("degenerate cases should return 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v want -1,7", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(empty) should panic")
		}
	}()
	MinMax(nil)
}

func TestZScore(t *testing.T) {
	x := []float64{2, 4, 6, 8}
	if !ZScore(x) {
		t.Fatal("ZScore returned false for non-constant input")
	}
	if !almostEqual(Mean(x), 0, 1e-12) || !almostEqual(StdDev(x), 1, 1e-12) {
		t.Errorf("after ZScore: mean=%v sd=%v", Mean(x), StdDev(x))
	}
	c := []float64{5, 5, 5}
	if ZScore(c) {
		t.Error("ZScore of constant series should return false")
	}
	if c[0] != 0 {
		t.Error("constant series should be centred to 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, %v want 1", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson = %v want -1", r)
	}
}

func TestPearsonConstantAndErrors(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Errorf("constant Pearson = %v,%v want 0,nil", r, err)
	}
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Error("expected empty input error")
	}
}

func TestPearsonInvariantToAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.5*rng.NormFloat64()
	}
	r1, _ := Pearson(x, y)
	scaled := make([]float64, len(y))
	for i, v := range y {
		scaled[i] = 3*v + 7
	}
	r2, _ := Pearson(x, scaled)
	if !almostEqual(r1, r2, 1e-12) {
		t.Errorf("Pearson not affine invariant: %v vs %v", r1, r2)
	}
}

func TestRMSE(t *testing.T) {
	r, err := RMSE([]float64{1, 2}, []float64{1, 4})
	if err != nil || !almostEqual(r, math.Sqrt(2), 1e-12) {
		t.Errorf("RMSE = %v,%v", r, err)
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("expected empty error")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{90, 92, 94})
	if !almostEqual(s.Mean, 92, 1e-12) || s.N != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestFisherZRoundTrip(t *testing.T) {
	for _, r := range []float64{-0.9, -0.5, 0, 0.3, 0.99} {
		if got := math.Tanh(FisherZ(r)); !almostEqual(got, r, 1e-9) {
			t.Errorf("round trip %v -> %v", r, got)
		}
	}
	if math.IsInf(FisherZ(1), 0) || math.IsInf(FisherZ(-1), 0) {
		t.Error("FisherZ should clamp at ±1")
	}
}

// Property: Pearson correlation is bounded in [−1, 1].
func TestQuickPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r, err := Pearson(x, y)
		return err == nil && r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is symmetric in its arguments.
func TestQuickPearsonSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		a, _ := Pearson(x, y)
		b, _ := Pearson(y, x)
		return almostEqual(a, b, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
