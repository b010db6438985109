package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefault(2)
	if got := Workers(0); got != 2 {
		t.Errorf("Workers(0) with default 2 = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("explicit knob must beat the default: Workers(5) = %d", got)
	}
	SetDefault(0)
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d want GOMAXPROCS", got)
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{1, 2, 16, 1000} {
			for _, grain := range []int{1, 3, 16, 5000} {
				hits := make([]int32, n)
				ForWith(workers, n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times", workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	called := false
	For(0, 4, func(lo, hi int) { called = true })
	ForWith(4, -3, 1, func(lo, hi int) { called = true })
	if called {
		t.Error("fn must not run on an empty range")
	}
	if err := ForCtx(context.Background(), 4, 0, 1, func(lo, hi int) error { return errors.New("no") }); err != nil {
		t.Errorf("ForCtx on empty range: %v", err)
	}
}

func TestForGrainAtLeastNRunsInline(t *testing.T) {
	calls := 0
	ForWith(8, 10, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("single-chunk range [%d,%d) want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("grain >= n must collapse to one inline call, got %d", calls)
	}
	// Zero or negative grain is clamped, not a panic.
	total := 0
	ForWith(1, 5, 0, func(lo, hi int) { total += hi - lo })
	if total != 5 {
		t.Errorf("grain=0 covered %d of 5", total)
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]string{}
	for root := int64(0); root < 4; root++ {
		for a := int64(0); a < 8; a++ {
			for b := int64(0); b < 8; b++ {
				s := DeriveSeed(root, a, b)
				key := fmt.Sprintf("root=%d a=%d b=%d", root, a, b)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision between %s and %s", key, prev)
				}
				seen[s] = key
			}
		}
	}
	// Deterministic across calls.
	if DeriveSeed(42, 1, 2) != DeriveSeed(42, 1, 2) {
		t.Error("DeriveSeed is not deterministic")
	}
	// Path order matters.
	if DeriveSeed(42, 1, 2) == DeriveSeed(42, 2, 1) {
		t.Error("DeriveSeed ignores path order")
	}
}
