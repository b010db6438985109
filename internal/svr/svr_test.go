package svr

import (
	"math"
	"math/rand"
	"testing"

	"brainprint/internal/linalg"
	"brainprint/internal/stats"
)

// linearProblem builds y = w·x + b + noise.
func linearProblem(rng *rand.Rand, samples, features int, noise float64) (*linalg.Matrix, []float64, []float64) {
	w := make([]float64, features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	x := linalg.NewMatrix(samples, features)
	y := make([]float64, samples)
	for i := 0; i < samples; i++ {
		var s float64
		for j := 0; j < features; j++ {
			v := rng.NormFloat64()
			x.Set(i, j, v)
			s += w[j] * v
		}
		y[i] = s + 3 + noise*rng.NormFloat64()
	}
	return x, y, w
}

func TestTrainValidation(t *testing.T) {
	x := linalg.NewMatrix(5, 3)
	if _, err := Train(x, []float64{1, 2}, Config{}); err == nil {
		t.Error("expected sample/target mismatch error")
	}
	if _, err := Train(linalg.NewMatrix(1, 3), []float64{1}, Config{}); err == nil {
		t.Error("expected too-few-samples error")
	}
	if _, err := Train(linalg.NewMatrix(5, 0), make([]float64, 5), Config{}); err == nil {
		t.Error("expected no-features error")
	}
}

func TestTrainRecoversLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y, _ := linearProblem(rng, 120, 8, 0.05)
	model, err := Train(x, y, Config{Epochs: 300, Seed: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	pred, err := model.PredictBatch(x)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	rmse, _ := stats.RMSE(pred, y)
	ySd := stats.StdDev(y)
	if rmse > 0.15*ySd {
		t.Errorf("train RMSE %.4f too high relative to target sd %.4f", rmse, ySd)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xTrain, yTrain, w := linearProblem(rng, 150, 5, 0.05)
	model, err := Train(xTrain, yTrain, Config{Epochs: 300, Seed: 4})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Fresh test data from the same generating function.
	xTest := linalg.NewMatrix(50, 5)
	yTest := make([]float64, 50)
	for i := 0; i < 50; i++ {
		var s float64
		for j := 0; j < 5; j++ {
			v := rng.NormFloat64()
			xTest.Set(i, j, v)
			s += w[j] * v
		}
		yTest[i] = s + 3
	}
	pred, _ := model.PredictBatch(xTest)
	rmse, _ := stats.RMSE(pred, yTest)
	if rmse > 0.2*stats.StdDev(yTest) {
		t.Errorf("test RMSE %.4f too high", rmse)
	}
}

func TestPredictDimensionCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y, _ := linearProblem(rng, 20, 4, 0.1)
	model, _ := Train(x, y, Config{Epochs: 50})
	if _, err := model.Predict([]float64{1, 2}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestEpsilonInsensitivity(t *testing.T) {
	// With a huge epsilon tube, everything is inside the tube and the
	// model should stay near the mean predictor.
	rng := rand.New(rand.NewSource(6))
	x, y, _ := linearProblem(rng, 80, 4, 0.05)
	model, err := Train(x, y, Config{Epsilon: 100, Epochs: 100, Seed: 7})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	pred, _ := model.PredictBatch(x)
	// Predictions should be roughly constant at the target mean.
	if sd := stats.StdDev(pred); sd > 0.2*stats.StdDev(y) {
		t.Errorf("huge-epsilon model should be near-constant, pred sd=%v", sd)
	}
	if math.Abs(stats.Mean(pred)-stats.Mean(y)) > 0.2*stats.StdDev(y) {
		t.Errorf("huge-epsilon model should predict the mean")
	}
}

func TestConstantFeatureHandled(t *testing.T) {
	// A constant column must not produce NaNs (guarded standardization).
	rng := rand.New(rand.NewSource(8))
	x := linalg.NewMatrix(30, 3)
	y := make([]float64, 30)
	for i := 0; i < 30; i++ {
		x.Set(i, 0, 5) // constant
		x.Set(i, 1, rng.NormFloat64())
		x.Set(i, 2, rng.NormFloat64())
		y[i] = 2*x.At(i, 1) + rng.NormFloat64()*0.1
	}
	model, err := Train(x, y, Config{Epochs: 100, Seed: 9})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	pred, _ := model.PredictBatch(x)
	for _, v := range pred {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf prediction from constant feature")
		}
	}
}

func TestConstantTargetsHandled(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := linalg.NewMatrix(20, 3)
	for i := 0; i < 20; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	y := make([]float64, 20)
	for i := range y {
		y[i] = 7
	}
	model, err := Train(x, y, Config{Epochs: 50, Seed: 13})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	v, _ := model.Predict(x.RowView(0))
	if math.Abs(v-7) > 0.5 {
		t.Errorf("constant targets should predict ≈7, got %v", v)
	}
}
