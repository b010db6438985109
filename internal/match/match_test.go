package match

import (
	"math"
	"math/rand"
	"testing"

	"brainprint/internal/linalg"
)

// alignedGroups builds two feature×subject matrices where each subject's
// columns are noisy copies of a shared prototype, so the correct match
// is the aligned index.
func alignedGroups(rng *rand.Rand, features, subjects int, noise float64) (*linalg.Matrix, *linalg.Matrix) {
	known := linalg.NewMatrix(features, subjects)
	anon := linalg.NewMatrix(features, subjects)
	for s := 0; s < subjects; s++ {
		proto := make([]float64, features)
		for f := range proto {
			proto[f] = rng.NormFloat64()
		}
		k := make([]float64, features)
		a := make([]float64, features)
		for f := range proto {
			k[f] = proto[f] + noise*rng.NormFloat64()
			a[f] = proto[f] + noise*rng.NormFloat64()
		}
		known.SetCol(s, k)
		anon.SetCol(s, a)
	}
	return known, anon
}

func TestSimilarityMatrixShapeAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	known, anon := alignedGroups(rng, 50, 8, 0.5)
	sim, err := SimilarityMatrix(known, anon)
	if err != nil {
		t.Fatalf("SimilarityMatrix: %v", err)
	}
	if r, c := sim.Dims(); r != 8 || c != 8 {
		t.Fatalf("dims %dx%d", r, c)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			v := sim.At(i, j)
			if v < -1-1e-9 || v > 1+1e-9 {
				t.Fatalf("correlation out of range: %v", v)
			}
		}
	}
}

func TestSimilarityMatrixMatchesPearson(t *testing.T) {
	known, _ := linalg.NewMatrixFromRows([][]float64{{1, 5}, {2, 6}, {3, 9}})
	anon, _ := linalg.NewMatrixFromRows([][]float64{{2}, {4}, {6}})
	sim, err := SimilarityMatrix(known, anon)
	if err != nil {
		t.Fatalf("SimilarityMatrix: %v", err)
	}
	// Column 0 of known is perfectly correlated with the anon column.
	if math.Abs(sim.At(0, 0)-1) > 1e-9 {
		t.Errorf("sim(0,0) = %v want 1", sim.At(0, 0))
	}
}

func TestSimilarityMatrixErrors(t *testing.T) {
	if _, err := SimilarityMatrix(linalg.NewMatrix(3, 2), linalg.NewMatrix(4, 2)); err == nil {
		t.Error("expected feature mismatch error")
	}
	if _, err := SimilarityMatrix(linalg.NewMatrix(0, 0), linalg.NewMatrix(0, 0)); err == nil {
		t.Error("expected empty error")
	}
}

func TestPredictAndAccuracyPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	known, anon := alignedGroups(rng, 80, 10, 0.3)
	sim, _ := SimilarityMatrix(known, anon)
	pred := Predict(sim)
	for j, p := range pred {
		if p != j {
			t.Errorf("subject %d predicted as %d", j, p)
		}
	}
	acc, err := Accuracy(sim, nil)
	if err != nil || acc != 1 {
		t.Errorf("accuracy = %v, %v", acc, err)
	}
}

func TestAccuracyWithPermutedTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	known, anon := alignedGroups(rng, 60, 6, 0.2)
	// Shuffle the anonymous columns: truth maps shuffled position → known
	// index.
	perm := []int{3, 1, 4, 0, 5, 2}
	shuffled := linalg.NewMatrix(60, 6)
	for newPos, orig := range perm {
		shuffled.SetCol(newPos, anon.Col(orig))
	}
	sim, _ := SimilarityMatrix(known, shuffled)
	acc, err := Accuracy(sim, perm)
	if err != nil || acc != 1 {
		t.Errorf("permuted accuracy = %v, %v want 1", acc, err)
	}
	if _, err := Accuracy(sim, []int{0}); err == nil {
		t.Error("expected truth length error")
	}
}

func TestAccuracyChanceLevelForNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	known := linalg.NewMatrix(40, 12)
	anon := linalg.NewMatrix(40, 12)
	for s := 0; s < 12; s++ {
		for f := 0; f < 40; f++ {
			known.Set(f, s, rng.NormFloat64())
			anon.Set(f, s, rng.NormFloat64())
		}
	}
	sim, _ := SimilarityMatrix(known, anon)
	acc, _ := Accuracy(sim, nil)
	if acc > 0.5 {
		t.Errorf("unrelated groups should match near chance, got %v", acc)
	}
}

func TestDiagonalContrast(t *testing.T) {
	sim, _ := linalg.NewMatrixFromRows([][]float64{
		{0.9, 0.1},
		{0.2, 0.8},
	})
	d, o, err := DiagonalContrast(sim)
	if err != nil {
		t.Fatalf("DiagonalContrast: %v", err)
	}
	if math.Abs(d-0.85) > 1e-12 || math.Abs(o-0.15) > 1e-12 {
		t.Errorf("contrast = %v, %v", d, o)
	}
	if _, _, err := DiagonalContrast(linalg.NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square")
	}
}

func TestDiagonalContrastSingleSubject(t *testing.T) {
	sim, _ := linalg.NewMatrixFromRows([][]float64{{0.7}})
	d, o, err := DiagonalContrast(sim)
	if err != nil || d != 0.7 || o != 0 {
		t.Errorf("single subject contrast = %v, %v, %v", d, o, err)
	}
}

func TestAccuracyDegradesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cleanKnown, cleanAnon := alignedGroups(rng, 60, 15, 0.2)
	noisyKnown, noisyAnon := alignedGroups(rng, 60, 15, 3.0)
	simClean, _ := SimilarityMatrix(cleanKnown, cleanAnon)
	simNoisy, _ := SimilarityMatrix(noisyKnown, noisyAnon)
	accClean, _ := Accuracy(simClean, nil)
	accNoisy, _ := Accuracy(simNoisy, nil)
	if accClean <= accNoisy {
		t.Errorf("accuracy should degrade with noise: clean=%v noisy=%v", accClean, accNoisy)
	}
}
