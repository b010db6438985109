package knn

import (
	"math/rand"
	"testing"
)

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Error("expected error for empty reference")
	}
	if _, err := Fit([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("expected error for label mismatch")
	}
	if _, err := Fit([][]float64{{}}, []int{0}); err == nil {
		t.Error("expected error for zero dims")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []int{0, 1}); err == nil {
		t.Error("expected error for ragged points")
	}
}

func TestPredictNearest(t *testing.T) {
	clf, err := Fit([][]float64{{0, 0}, {10, 10}}, []int{0, 1})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	got, err := clf.Predict([]float64{1, 1}, 1)
	if err != nil || got != 0 {
		t.Errorf("Predict = %d, %v want 0", got, err)
	}
	got, _ = clf.Predict([]float64{9, 9}, 1)
	if got != 1 {
		t.Errorf("Predict = %d want 1", got)
	}
}

func TestPredictValidation(t *testing.T) {
	clf, _ := Fit([][]float64{{0, 0}}, []int{0})
	if _, err := clf.Predict([]float64{1}, 1); err == nil {
		t.Error("expected dims error")
	}
	if _, err := clf.Predict([]float64{1, 1}, 0); err == nil {
		t.Error("expected k error")
	}
}

func TestPredictMajorityVote(t *testing.T) {
	// Two class-0 points and one class-1 point near the query: k=3
	// majority should say 0 even though the single nearest is class 1.
	points := [][]float64{{1, 0}, {2, 0}, {0.5, 0}}
	labels := []int{0, 0, 1}
	clf, _ := Fit(points, labels)
	got, err := clf.Predict([]float64{0, 0}, 3)
	if err != nil || got != 0 {
		t.Errorf("majority vote = %d, %v want 0", got, err)
	}
	// k=1 picks the nearest (class 1).
	got, _ = clf.Predict([]float64{0, 0}, 1)
	if got != 1 {
		t.Errorf("nearest = %d want 1", got)
	}
}

func TestPredictKClamped(t *testing.T) {
	clf, _ := Fit([][]float64{{0}, {1}}, []int{0, 1})
	if _, err := clf.Predict([]float64{0.2}, 10); err != nil {
		t.Errorf("oversized k should clamp, got error %v", err)
	}
}

func TestPredictBatchAndImmutability(t *testing.T) {
	pts := [][]float64{{0, 0}, {5, 5}}
	clf, _ := Fit(pts, []int{0, 1})
	// Mutating caller data after Fit must not affect the classifier.
	pts[0][0] = 100
	got, err := clf.PredictBatch([][]float64{{0.1, 0}, {4.9, 5}}, 1)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("PredictBatch = %v", got)
	}
	if len(clf.points) != 2 {
		t.Errorf("classifier holds %d reference points, want 2", len(clf.points))
	}
}

func TestHighAccuracyOnSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts [][]float64
	var labels []int
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for c, center := range centers {
		for i := 0; i < 20; i++ {
			pts = append(pts, []float64{center[0] + rng.NormFloat64(), center[1] + rng.NormFloat64()})
			labels = append(labels, c)
		}
	}
	clf, _ := Fit(pts, labels)
	correct := 0
	total := 60
	for c, center := range centers {
		for i := 0; i < 20; i++ {
			q := []float64{center[0] + rng.NormFloat64(), center[1] + rng.NormFloat64()}
			if got, _ := clf.Predict(q, 3); got == c {
				correct++
			}
		}
	}
	if float64(correct)/float64(total) < 0.95 {
		t.Errorf("accuracy %d/%d too low for separated clusters", correct, total)
	}
}
