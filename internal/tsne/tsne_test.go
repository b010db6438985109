package tsne

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"brainprint/internal/linalg"
	"brainprint/internal/stats"
)

// gaussianClusters samples n points per cluster around well-separated
// centres in d dimensions.
func gaussianClusters(rng *rand.Rand, centers [][]float64, perCluster int, spread float64) (*linalg.Matrix, []int) {
	d := len(centers[0])
	n := len(centers) * perCluster
	x := linalg.NewMatrix(n, d)
	labels := make([]int, n)
	row := 0
	for c, center := range centers {
		for i := 0; i < perCluster; i++ {
			for j := 0; j < d; j++ {
				x.Set(row, j, center[j]+spread*rng.NormFloat64())
			}
			labels[row] = c
			row++
		}
	}
	return x, labels
}

func TestSquaredDistances(t *testing.T) {
	x, _ := linalg.NewMatrixFromRows([][]float64{
		{0, 0},
		{3, 4},
		{0, 1},
	})
	d2, err := SquaredDistances(x)
	if err != nil {
		t.Fatalf("SquaredDistances: %v", err)
	}
	if math.Abs(d2.At(0, 1)-25) > 1e-9 {
		t.Errorf("d2(0,1) = %v want 25", d2.At(0, 1))
	}
	if math.Abs(d2.At(0, 2)-1) > 1e-9 {
		t.Errorf("d2(0,2) = %v want 1", d2.At(0, 2))
	}
	if d2.At(1, 1) != 0 {
		t.Errorf("diagonal should be 0")
	}
	if d2.At(0, 1) != d2.At(1, 0) {
		t.Error("distance matrix should be symmetric")
	}
	if _, err := SquaredDistances(linalg.NewMatrix(0, 0)); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestEmbedRejectsTinyInput(t *testing.T) {
	if _, err := EmbedCtx(context.Background(), linalg.NewMatrix(3, 5), Config{}); err == nil {
		t.Error("expected error for <4 points")
	}
	if _, err := EmbedDistancesCtx(context.Background(), linalg.NewMatrix(4, 5), 4, Config{}); err == nil {
		t.Error("expected error for non-square distances")
	}
}

func TestEmbedShapeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _ := gaussianClusters(rng, [][]float64{{0, 0, 0}, {10, 0, 0}}, 8, 0.5)
	cfg := Config{Perplexity: 5, Iterations: 120, Seed: 7}
	r1, err := EmbedCtx(context.Background(), x, cfg)
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	if rows, cols := r1.Y.Dims(); rows != 16 || cols != 2 {
		t.Fatalf("embedding dims %dx%d want 16x2", rows, cols)
	}
	r2, err := EmbedCtx(context.Background(), x, cfg)
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	if !r1.Y.EqualApprox(r2.Y, 0) {
		t.Error("same seed should reproduce the embedding exactly")
	}
	r3, _ := EmbedCtx(context.Background(), x, Config{Perplexity: 5, Iterations: 120, Seed: 8})
	if r1.Y.EqualApprox(r3.Y, 1e-12) {
		t.Error("different seed should change the embedding")
	}
}

// TestEmbedSeparatesClusters is the core behavioural test: two
// well-separated high-dimensional clusters must stay separated in 2-D —
// every point's nearest neighbours in the embedding should be from its
// own cluster.
func TestEmbedSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	centers := [][]float64{
		{0, 0, 0, 0, 0},
		{20, 0, 0, 0, 0},
		{0, 20, 0, 0, 0},
	}
	x, labels := gaussianClusters(rng, centers, 10, 0.8)
	res, err := EmbedCtx(context.Background(), x, Config{Perplexity: 8, Iterations: 300, Seed: 3})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	// Measure cluster preservation: mean intra-cluster distance must be
	// much smaller than mean inter-cluster distance.
	var intra, inter []float64
	n := len(labels)
	for i := 0; i < n; i++ {
		yi := res.Y.Row(i)
		for j := i + 1; j < n; j++ {
			yj := res.Y.Row(j)
			d := math.Hypot(yi[0]-yj[0], yi[1]-yj[1])
			if labels[i] == labels[j] {
				intra = append(intra, d)
			} else {
				inter = append(inter, d)
			}
		}
	}
	mi, me := stats.Mean(intra), stats.Mean(inter)
	if me < 2*mi {
		t.Errorf("clusters not separated: intra=%.3f inter=%.3f", mi, me)
	}
}

func TestEmbedKLDecreasesWithIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, _ := gaussianClusters(rng, [][]float64{{0, 0, 0}, {8, 0, 0}}, 10, 1)
	short, err := EmbedCtx(context.Background(), x, Config{Perplexity: 6, Iterations: 60, ExaggerationIters: 10, Seed: 5})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	long, err := EmbedCtx(context.Background(), x, Config{Perplexity: 6, Iterations: 400, ExaggerationIters: 10, Seed: 5})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	if long.KL > short.KL+1e-9 {
		t.Errorf("KL should not increase with more iterations: %v -> %v", short.KL, long.KL)
	}
	if long.KL < 0 {
		t.Errorf("KL divergence must be nonnegative, got %v", long.KL)
	}
}

func TestEmbedCentered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, _ := gaussianClusters(rng, [][]float64{{0, 0}, {5, 5}}, 6, 0.5)
	res, err := EmbedCtx(context.Background(), x, Config{Perplexity: 4, Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	n, dims := res.Y.Dims()
	for k := 0; k < dims; k++ {
		var mean float64
		for i := 0; i < n; i++ {
			mean += res.Y.At(i, k)
		}
		mean /= float64(n)
		if math.Abs(mean) > 1e-9 {
			t.Errorf("dimension %d not centred: mean=%v", k, mean)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(1000)
	if c.Perplexity != 30 || c.OutputDims != 2 || c.Iterations != 500 {
		t.Errorf("defaults wrong: %+v", c)
	}
	// Small datasets clamp perplexity.
	small := Config{Perplexity: 50}.withDefaults(10)
	if small.Perplexity != 3 {
		t.Errorf("perplexity should clamp to (n-1)/3 = 3, got %v", small.Perplexity)
	}
}

func TestEmbedHigherOutputDims(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, _ := gaussianClusters(rng, [][]float64{{0, 0, 0}, {6, 0, 0}}, 5, 0.4)
	res, err := EmbedCtx(context.Background(), x, Config{Perplexity: 3, Iterations: 40, OutputDims: 3, Seed: 2})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	if _, cols := res.Y.Dims(); cols != 3 {
		t.Errorf("output dims = %d want 3", cols)
	}
}

func TestJointProbabilitiesRowStochasticSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, _ := gaussianClusters(rng, [][]float64{{0, 0}, {4, 4}}, 6, 0.8)
	d2, _ := SquaredDistances(x)
	p := jointProbabilities(d2, 4)
	n := p.Rows()
	var total float64
	for i := 0; i < n; i++ {
		if p.At(i, i) != 0 {
			t.Errorf("diagonal p(%d,%d) should be 0", i, i)
		}
		for j := 0; j < n; j++ {
			if math.Abs(p.At(i, j)-p.At(j, i)) > 1e-15 {
				t.Fatalf("P not symmetric at (%d,%d)", i, j)
			}
			total += p.At(i, j)
		}
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("P sums to %v want 1", total)
	}
	// Outlier robustness (§3.1.3): every row keeps some mass.
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += p.At(i, j)
		}
		if rowSum < 1/(2*float64(n))-1e-9 {
			t.Errorf("row %d mass %v below 1/2n", i, rowSum)
		}
	}
}
