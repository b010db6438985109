// Package tsne implements t-distributed Stochastic Neighbor Embedding
// (van der Maaten & Hinton 2008) as specified in the paper's §3.1.3 and
// Algorithm 2: Gaussian input affinities calibrated per point to a
// target perplexity, symmetrized joint probabilities, a Cauchy
// (Student-t, one degree of freedom) kernel in the embedding space, and
// momentum gradient descent on the KL divergence, with the standard
// early-exaggeration phase.
package tsne

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"brainprint/internal/linalg"
)

// Config controls the embedding. Zero fields take the documented
// defaults.
type Config struct {
	// Perplexity is the effective neighbour count (Eq. 7); default 30,
	// clamped to (n−1)/3 when the dataset is small.
	Perplexity float64
	// OutputDims is the embedding dimensionality; default 2.
	OutputDims int
	// Iterations is the number of gradient steps T; default 500.
	Iterations int
	// LearningRate is η; default 100.
	LearningRate float64
	// EarlyExaggeration multiplies P during the first ExaggerationIters
	// steps; default 4 for 50 iterations.
	EarlyExaggeration float64
	ExaggerationIters int
	// Seed drives the N(0, 1e-4) initialization of Algorithm 2.
	Seed int64
}

func (c Config) withDefaults(n int) Config {
	if c.Perplexity <= 0 {
		c.Perplexity = 30
	}
	if maxPerp := float64(n-1) / 3; c.Perplexity > maxPerp && maxPerp >= 2 {
		c.Perplexity = maxPerp
	}
	if c.OutputDims <= 0 {
		c.OutputDims = 2
	}
	if c.Iterations <= 0 {
		c.Iterations = 500
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 100
	}
	if c.EarlyExaggeration <= 0 {
		c.EarlyExaggeration = 4
	}
	if c.ExaggerationIters <= 0 {
		c.ExaggerationIters = 50
	}
	return c
}

// Result holds the embedding and diagnostics.
type Result struct {
	// Y is the n×OutputDims embedding.
	Y *linalg.Matrix
	// KL is the final Kullback-Leibler divergence KL(P‖Q) (Eq. 10).
	KL float64
	// Iterations actually run.
	Iterations int
}

// EmbedCtx maps the rows of x (n points × d features) into the low-
// dimensional space. The gradient loop checks ctx every iteration and
// returns ctx.Err() on cancellation, so even long paper-scale
// embeddings abort promptly.
func EmbedCtx(ctx context.Context, x *linalg.Matrix, cfg Config) (*Result, error) {
	n, _ := x.Dims()
	if n < 4 {
		return nil, fmt.Errorf("tsne: need at least 4 points, got %d", n)
	}
	d2, err := SquaredDistances(x)
	if err != nil {
		return nil, err
	}
	return EmbedDistancesCtx(ctx, d2, n, cfg)
}

// SquaredDistances computes the n×n matrix of squared Euclidean
// distances between the rows of x using the Gram identity
// ‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b, which costs one n×n Gram product instead
// of n² row scans of the (possibly very wide) data.
func SquaredDistances(x *linalg.Matrix) (*linalg.Matrix, error) {
	n, _ := x.Dims()
	if n == 0 {
		return nil, fmt.Errorf("tsne: empty input")
	}
	gram := x.Mul(x.T())
	out := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		gii := gram.At(i, i)
		for j := 0; j < n; j++ {
			d := gii + gram.At(j, j) - 2*gram.At(i, j)
			if d < 0 {
				d = 0 // numerical noise
			}
			out.Set(i, j, d)
		}
	}
	return out, nil
}

// EmbedDistancesCtx runs t-SNE from a precomputed n×n squared-distance
// matrix, under a context (see EmbedCtx).
func EmbedDistancesCtx(ctx context.Context, d2 *linalg.Matrix, n int, cfg Config) (*Result, error) {
	if r, c := d2.Dims(); r != n || c != n {
		return nil, fmt.Errorf("tsne: distance matrix is %dx%d, want %dx%d", r, c, n, n)
	}
	if n < 4 {
		return nil, fmt.Errorf("tsne: need at least 4 points, got %d", n)
	}
	cfg = cfg.withDefaults(n)

	p := jointProbabilities(d2, cfg.Perplexity)

	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := cfg.OutputDims
	y := linalg.NewMatrix(n, dims)
	yd := y.RawData()
	for i := range yd {
		yd[i] = 1e-2 * rng.NormFloat64() // N(0, 1e-4·I) as in Algorithm 2
	}

	grad := make([]float64, n*dims)
	update := make([]float64, n*dims)
	q := linalg.NewMatrix(n, n)
	num := linalg.NewMatrix(n, n)

	exaggerate := cfg.EarlyExaggeration
	for i := range p.RawData() {
		p.RawData()[i] *= exaggerate
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if iter == cfg.ExaggerationIters {
			inv := 1 / exaggerate
			for i := range p.RawData() {
				p.RawData()[i] *= inv
			}
		}
		computeQ(y, q, num)
		// Gradient (Eq. 12): 4·Σ_j (p_ij − q_ij)(y_i − y_j)(1+‖y_i−y_j‖²)⁻¹.
		for i := range grad {
			grad[i] = 0
		}
		for i := 0; i < n; i++ {
			yi := y.RowView(i)
			gi := grad[i*dims : (i+1)*dims]
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				mult := 4 * (p.At(i, j) - q.At(i, j)) * num.At(i, j)
				yj := y.RowView(j)
				for k := 0; k < dims; k++ {
					gi[k] += mult * (yi[k] - yj[k])
				}
			}
		}
		// Momentum schedule of van der Maaten: 0.5 early, 0.8 late.
		momentum := 0.5
		if iter >= 250 {
			momentum = 0.8
		}
		for i := range yd {
			update[i] = momentum*update[i] - cfg.LearningRate*grad[i]
			yd[i] += update[i]
		}
		centerRows(y)
	}
	// Undo any residual exaggeration before computing the final KL
	// (possible when Iterations < ExaggerationIters).
	if cfg.Iterations < cfg.ExaggerationIters {
		inv := 1 / exaggerate
		for i := range p.RawData() {
			p.RawData()[i] *= inv
		}
	}
	computeQ(y, q, num)
	return &Result{Y: y, KL: klDivergence(p, q), Iterations: cfg.Iterations}, nil
}

// jointProbabilities converts squared distances into the symmetrized
// joint distribution P of Eq. 10, calibrating the per-point Gaussian
// bandwidth to the target perplexity with binary search on the
// precision β = 1/(2σ²).
func jointProbabilities(d2 *linalg.Matrix, perplexity float64) *linalg.Matrix {
	n := d2.Rows()
	target := math.Log(perplexity)
	p := linalg.NewMatrix(n, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		beta := 1.0
		betaMin := math.Inf(-1)
		betaMax := math.Inf(1)
		for iter := 0; iter < 64; iter++ {
			// Compute conditional probabilities and entropy at this beta.
			var sum float64
			for j := 0; j < n; j++ {
				if j == i {
					row[j] = 0
					continue
				}
				row[j] = math.Exp(-beta * d2.At(i, j))
				sum += row[j]
			}
			if sum == 0 {
				// All neighbours infinitely far at this precision: soften.
				beta /= 2
				continue
			}
			// Shannon entropy H = log Σ + β·E[d]/Σ.
			var dotP float64
			for j := 0; j < n; j++ {
				if j != i {
					dotP += row[j] * d2.At(i, j)
				}
			}
			h := math.Log(sum) + beta*dotP/sum
			diff := h - target
			if math.Abs(diff) < 1e-5 {
				break
			}
			if diff > 0 { // entropy too high → sharpen
				betaMin = beta
				if math.IsInf(betaMax, 1) {
					beta *= 2
				} else {
					beta = (beta + betaMax) / 2
				}
			} else {
				betaMax = beta
				if math.IsInf(betaMin, -1) {
					beta /= 2
				} else {
					beta = (beta + betaMin) / 2
				}
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			if j == i {
				row[j] = 0
				continue
			}
			row[j] = math.Exp(-beta * d2.At(i, j))
			sum += row[j]
		}
		if sum > 0 {
			inv := 1 / sum
			for j := range row {
				row[j] *= inv
			}
		}
		p.SetRow(i, row)
	}
	// Symmetrize: p_ij = (p_j|i + p_i|j) / 2n, which guarantees every
	// point contributes to the cost (§3.1.3's outlier fix).
	out := linalg.NewMatrix(n, n)
	inv2n := 1 / (2 * float64(n))
	const floor = 1e-12
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := (p.At(i, j) + p.At(j, i)) * inv2n
			if v < floor {
				v = floor
			}
			out.Set(i, j, v)
		}
	}
	return out
}

// computeQ fills q with the Cauchy-kernel joint distribution of Eq. 11
// and num with the kernel values (1+‖y_i−y_j‖²)⁻¹ reused by the
// gradient.
func computeQ(y, q, num *linalg.Matrix) {
	n := y.Rows()
	dims := y.Cols()
	var total float64
	for i := 0; i < n; i++ {
		yi := y.RowView(i)
		for j := i + 1; j < n; j++ {
			yj := y.RowView(j)
			var d float64
			for k := 0; k < dims; k++ {
				diff := yi[k] - yj[k]
				d += diff * diff
			}
			v := 1 / (1 + d)
			num.Set(i, j, v)
			num.Set(j, i, v)
			total += 2 * v
		}
	}
	const floor = 1e-12
	for i := 0; i < n; i++ {
		q.Set(i, i, 0)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := num.At(i, j) / total
			if v < floor {
				v = floor
			}
			q.Set(i, j, v)
		}
	}
}

// centerRows translates the embedding to zero mean, removing the
// translational degree of freedom.
func centerRows(y *linalg.Matrix) {
	n, dims := y.Dims()
	for k := 0; k < dims; k++ {
		var mean float64
		for i := 0; i < n; i++ {
			mean += y.At(i, k)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			y.Set(i, k, y.At(i, k)-mean)
		}
	}
}

// klDivergence computes KL(P‖Q) = Σ p_ij log(p_ij/q_ij) over off-
// diagonal entries.
func klDivergence(p, q *linalg.Matrix) float64 {
	n := p.Rows()
	var kl float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pij := p.At(i, j)
			if pij <= 0 {
				continue
			}
			kl += pij * math.Log(pij/q.At(i, j))
		}
	}
	return kl
}
