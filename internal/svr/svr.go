// Package svr implements linear ε-insensitive support vector regression,
// the model §3.3.3 trains on leverage-selected connectome features to
// predict task performance.
//
// Training uses dual coordinate descent (Ho & Lin 2012, the LIBLINEAR
// L1-loss SVR algorithm): with Q = XXᵀ the dual is
//
//	min_β  ½·βᵀQβ − yᵀβ + ε·‖β‖₁   subject to |βᵢ| ≤ C,
//
// where w = Σ βᵢ·xᵢ. Each coordinate update is a closed-form
// soft-threshold followed by box clipping, so the objective decreases
// monotonically and converges quickly on the paper's problem sizes
// (tens of samples × ≤ a few hundred features). Features and targets
// are standardized internally and restored at prediction time.
package svr

import (
	"fmt"
	"math"
	"math/rand"

	"brainprint/internal/linalg"
	"brainprint/internal/stats"
)

// Config holds SVR hyperparameters. Zero fields take defaults.
type Config struct {
	// Epsilon is the insensitive-tube half-width in standardized target
	// units; default 0.05.
	Epsilon float64
	// C is the per-sample loss weight (larger = harder fit); default 10.
	C float64
	// Epochs bounds the number of full coordinate passes; default 200.
	Epochs int
	// Tol stops training when the largest dual-variable change in a pass
	// falls below it; default 1e-6.
	Tol float64
	// Seed drives the coordinate-order shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.05
	}
	if c.C <= 0 {
		c.C = 10
	}
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c
}

// Model is a trained regressor in original feature/target units.
type Model struct {
	weights   []float64 // in standardized feature space
	bias      float64   // in standardized target space
	featMean  []float64
	featScale []float64
	yMean     float64
	yScale    float64
}

// Train fits a linear ε-SVR on x (samples × features) and targets y.
func Train(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	m, d := x.Dims()
	if m != len(y) {
		return nil, fmt.Errorf("svr: %d samples but %d targets", m, len(y))
	}
	if m < 2 {
		return nil, fmt.Errorf("svr: need at least 2 samples, got %d", m)
	}
	if d == 0 {
		return nil, fmt.Errorf("svr: no features")
	}
	cfg = cfg.withDefaults()

	model := &Model{
		weights:   make([]float64, d),
		featMean:  make([]float64, d),
		featScale: make([]float64, d),
	}
	xs := standardizeFeatures(x, model)
	model.yMean = stats.Mean(y)
	model.yScale = stats.StdDev(y)
	if model.yScale == 0 {
		model.yScale = 1
	}
	ys := make([]float64, m)
	for i, v := range y {
		ys[i] = (v - model.yMean) / model.yScale
	}

	// Dual coordinate descent. Because both features and targets are
	// centred, the optimal bias is ~0 and is omitted (absorbed by the
	// de-standardization at prediction time).
	w := make([]float64, d)
	beta := make([]float64, m)
	qdiag := make([]float64, m)
	for i := 0; i < m; i++ {
		xi := xs.RowView(i)
		qdiag[i] = linalg.Dot(xi, xi)
		if qdiag[i] == 0 {
			qdiag[i] = 1e-12
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(m)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		maxChange := 0.0
		for _, i := range order {
			xi := xs.RowView(i)
			g := linalg.Dot(w, xi) - ys[i]
			// Minimize ½·Qii·z² + (g − Qii·βᵢ)·z + ε|z| over z ∈ [−C, C].
			b := g - qdiag[i]*beta[i]
			z := softThreshold(-b, cfg.Epsilon) / qdiag[i]
			if z > cfg.C {
				z = cfg.C
			} else if z < -cfg.C {
				z = -cfg.C
			}
			delta := z - beta[i]
			if delta != 0 {
				linalg.Axpy(delta, xi, w)
				beta[i] = z
			}
			if a := math.Abs(delta); a > maxChange {
				maxChange = a
			}
		}
		if maxChange < cfg.Tol {
			break
		}
	}
	copy(model.weights, w)
	return model, nil
}

// softThreshold is the proximal operator of ε|·|.
func softThreshold(u, eps float64) float64 {
	switch {
	case u > eps:
		return u - eps
	case u < -eps:
		return u + eps
	default:
		return 0
	}
}

// standardizeFeatures fills the model's feature statistics and returns
// the standardized copy of x.
func standardizeFeatures(x *linalg.Matrix, model *Model) *linalg.Matrix {
	m, d := x.Dims()
	xs := linalg.NewMatrix(m, d)
	for j := 0; j < d; j++ {
		col := x.Col(j)
		model.featMean[j] = stats.Mean(col)
		sd := stats.StdDev(col)
		if sd == 0 {
			sd = 1
		}
		model.featScale[j] = sd
		for i := 0; i < m; i++ {
			xs.Set(i, j, (col[i]-model.featMean[j])/sd)
		}
	}
	return xs
}

// Predict evaluates the model on one sample in original units.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != len(m.weights) {
		return 0, fmt.Errorf("svr: sample has %d features, model expects %d", len(x), len(m.weights))
	}
	var s float64
	for j, v := range x {
		s += m.weights[j] * (v - m.featMean[j]) / m.featScale[j]
	}
	return (s+m.bias)*m.yScale + m.yMean, nil
}

// PredictBatch evaluates the model on every row of x.
func (m *Model) PredictBatch(x *linalg.Matrix) ([]float64, error) {
	rows, _ := x.Dims()
	out := make([]float64, rows)
	for i := 0; i < rows; i++ {
		v, err := m.Predict(x.RowView(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
