package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"brainprint/internal/linalg"
)

// cancelBudget is the wall-clock bound on a cancelled run: the 1s
// acceptance criterion normally, widened under the race detector whose
// ~10× instrumentation slowdown (plus CI contention) makes sub-second
// wall-clock assertions flaky without changing what is being proven —
// that in-flight chunks drain promptly after cancellation.
func cancelBudget() time.Duration {
	if raceEnabled {
		return 5 * time.Second
	}
	return time.Second
}

// randGroup builds a deterministic features×subjects matrix.
func randGroup(features, subjects int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(features, subjects)
	raw := m.RawData()
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	return m
}

// TestDeanonymizeCancelPaperScale cancels the dense attack at the
// paper's dimensions (64620 features × 100 subjects) and requires the
// abort inside a second — the serial sweep alone costs ~650M multiplies.
func TestDeanonymizeCancelPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale matrices")
	}
	cfg := AttackConfig{Features: 0, Parallelism: 1} // full space, serial
	known := randGroup(64620, 100, 11)
	anon := randGroup(64620, 100, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DeanonymizeCtx(ctx, known, anon, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if budget := cancelBudget(); elapsed > budget {
		t.Fatalf("paper-scale abort took %v, want < %v", elapsed, budget)
	}
}
