package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"brainprint/internal/linalg"
)

func randomMatrix(rng *rand.Rand, r, c int) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestMethodString(t *testing.T) {
	if Uniform.String() != "uniform" || L2Norm.String() != "l2-norm" || Leverage.String() != "leverage" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should render")
	}
}

func TestLeverageScoresProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 50, 8)
	scores, err := LeverageScores(a)
	if err != nil {
		t.Fatalf("LeverageScores: %v", err)
	}
	if len(scores) != 50 {
		t.Fatalf("len = %d", len(scores))
	}
	// Scores lie in [0, 1] and sum to the rank (= 8 for a random tall
	// matrix).
	var sum float64
	for i, s := range scores {
		if s < -1e-9 || s > 1+1e-9 {
			t.Errorf("score %d = %v out of [0,1]", i, s)
		}
		sum += s
	}
	if math.Abs(sum-8) > 1e-6 {
		t.Errorf("scores sum = %v want 8 (the rank)", sum)
	}
}

func TestLeverageScoresWideRejected(t *testing.T) {
	if _, err := LeverageScores(linalg.NewMatrix(3, 5)); err == nil {
		t.Error("expected error for wide matrix")
	}
}

func TestLeverageScoresIdentifyHeavyRow(t *testing.T) {
	// A matrix that is mostly noise plus one row aligned with a unique
	// direction: that row must receive the top leverage score.
	rng := rand.New(rand.NewSource(2))
	a := linalg.NewMatrix(40, 3)
	for i := 0; i < 40; i++ {
		// All rows live in the span of (1,0,0) and (0,1,0)...
		a.Set(i, 0, rng.NormFloat64())
		a.Set(i, 1, rng.NormFloat64())
	}
	// ...except row 7, which alone carries the third direction.
	a.Set(7, 2, 5)
	scores, err := LeverageScores(a)
	if err != nil {
		t.Fatalf("LeverageScores: %v", err)
	}
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	if best != 7 {
		t.Errorf("top leverage row = %d want 7 (scores[7]=%v max=%v)", best, scores[7], scores[best])
	}
}

func TestTopK(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	idx, err := TopK(vals, 3)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if idx[0] != 1 || idx[1] != 3 || idx[2] != 2 {
		t.Errorf("TopK = %v want [1 3 2] (ties by index)", idx)
	}
	if _, err := TopK(vals, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := TopK(vals, 6); err == nil {
		t.Error("expected error for k>len")
	}
}

func TestPrincipalFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 60, 5)
	idx, scores, err := PrincipalFeatures(a, 10)
	if err != nil {
		t.Fatalf("PrincipalFeatures: %v", err)
	}
	if len(idx) != 10 || len(scores) != 60 {
		t.Fatalf("sizes: idx=%d scores=%d", len(idx), len(scores))
	}
	// Selected features must dominate every unselected feature.
	sel := make(map[int]bool)
	minSel := math.Inf(1)
	for _, i := range idx {
		sel[i] = true
		if scores[i] < minSel {
			minSel = scores[i]
		}
	}
	for i, s := range scores {
		if !sel[i] && s > minSel+1e-12 {
			t.Errorf("unselected feature %d has score %v > min selected %v", i, s, minSel)
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 30, 4)
	for _, m := range []Method{Uniform, L2Norm, Leverage} {
		p, err := Probabilities(a, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Errorf("%v: negative probability %v", m, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: probabilities sum to %v", m, sum)
		}
	}
	if _, err := Probabilities(a, Method(9)); err == nil {
		t.Error("expected error for unknown method")
	}
	if _, err := Probabilities(linalg.NewMatrix(5, 3), L2Norm); err == nil {
		t.Error("expected error for zero matrix")
	}
}

func TestL2ProbabilitiesProportionalToNorms(t *testing.T) {
	a, _ := linalg.NewMatrixFromRows([][]float64{{3, 4}, {0, 0}, {1, 0}})
	p, err := Probabilities(a, L2Norm)
	if err != nil {
		t.Fatalf("Probabilities: %v", err)
	}
	// Norms squared: 25, 0, 1 → probabilities 25/26, 0, 1/26.
	if math.Abs(p[0]-25.0/26) > 1e-12 || p[1] != 0 || math.Abs(p[2]-1.0/26) > 1e-12 {
		t.Errorf("p = %v", p)
	}
}

func TestSelectWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := []float64{0.7, 0.1, 0.1, 0.1, 0}
	idx, err := SelectWithoutReplacement(p, 3, rng)
	if err != nil {
		t.Fatalf("SelectWithoutReplacement: %v", err)
	}
	seen := make(map[int]bool)
	for _, i := range idx {
		if seen[i] {
			t.Fatal("duplicate index")
		}
		seen[i] = true
	}
	if _, err := SelectWithoutReplacement(p, 0, rng); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := SelectWithoutReplacement(p, 6, rng); err == nil {
		t.Error("expected error for k>len")
	}
	// High-weight item should almost always be selected when k=1.
	hits := 0
	for r := 0; r < 200; r++ {
		one, _ := SelectWithoutReplacement(p, 1, rng)
		if one[0] == 0 {
			hits++
		}
	}
	if hits < 100 {
		t.Errorf("heavy item selected only %d/200 times", hits)
	}
}

// Property: leverage scores are invariant to right-multiplication by a
// nonsingular matrix (they depend only on the column space).
func TestQuickLeverageColumnSpaceInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := n + 4 + rng.Intn(20)
		a := randomMatrix(rng, m, n)
		// Random well-conditioned transform: diag + small noise.
		tr := linalg.Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				tr.Set(i, j, tr.At(i, j)+0.2*rng.NormFloat64())
			}
		}
		s1, err := LeverageScores(a)
		if err != nil {
			return false
		}
		s2, err := LeverageScores(a.Mul(tr))
		if err != nil {
			return false
		}
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
