package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCtxMatchesForErr pins the success-path contract: at any worker
// count, ForCtx must produce exactly the outputs of a serial loop
// (disjoint chunk writes, same chunking).
func TestForCtxMatchesForErr(t *testing.T) {
	const n, grain = 1000, 7
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got := make([]int, n)
		if err := ForCtx(context.Background(), workers, n, grain, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
			return nil
		}); err != nil {
			t.Fatalf("ForCtx(workers=%d): %v", workers, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForCtxPreCancelled verifies a pre-cancelled context aborts before
// any chunk runs, at serial and parallel worker counts.
func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForCtx(ctx, workers, 100, 1, func(lo, hi int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d chunks ran on a pre-cancelled context", workers, ran.Load())
		}
	}
}

// TestForCtxMidRunCancel cancels while chunks are in flight and asserts
// the loop returns promptly without running the remaining chunks and
// without deadlocking (run under -race in CI).
func TestForCtxMidRunCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		start := time.Now()
		err := ForCtx(ctx, workers, 10000, 1, func(lo, hi int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() > int64(3+Workers(workers)) {
			t.Errorf("workers=%d: %d chunks ran after cancellation", workers, ran.Load())
		}
		if elapsed > time.Second {
			t.Errorf("workers=%d: cancellation took %v, want < 1s", workers, elapsed)
		}
	}
}

// TestForCtxErrorBeatsCancel verifies a chunk error is reported even
// when the context is cancelled concurrently: real failures are never
// masked as cancellations.
func TestForCtxErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForCtx(ctx, 4, 100, 1, func(lo, hi int) error {
		if lo == 10 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the chunk error", err)
	}
}

// TestForErrFirstErrorByRange pins which error an erroring sweep
// reports: the one from the lowest failing range, at any worker count.
func TestForErrFirstErrorByRange(t *testing.T) {
	// fn fails at the first index >= 30 it sees. Serial collapses to one
	// [0,100) call and trips on index 30; parallel chunks report their
	// own first bad index but the lowest range wins — either way the
	// caller sees index 30.
	failFrom30 := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if i >= 30 {
				return fmt.Errorf("index %d", i)
			}
		}
		return nil
	}
	if err := ForCtx(context.Background(), 1, 100, 10, failFrom30); err == nil || err.Error() != "index 30" {
		t.Errorf("serial ForCtx = %v want index 30", err)
	}
	if err := ForCtx(context.Background(), 4, 100, 10, failFrom30); err == nil || err.Error() != "index 30" {
		t.Errorf("parallel ForCtx = %v want index 30", err)
	}
	// Parallel: whichever failing chunks execute, the reported error must
	// be the lowest-range one among them; chunk 0 always fails, so the
	// answer is fully determined.
	for trial := 0; trial < 20; trial++ {
		err := ForCtx(context.Background(), 8, 64, 1, func(lo, hi int) error {
			if lo%2 == 0 {
				return fmt.Errorf("chunk %d", lo)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 0" {
			t.Fatalf("parallel ForCtx = %v want chunk 0", err)
		}
	}
}

// TestForCtxLowestErrorWins pins the deterministic-error contract:
// among the failed chunks the lowest range's error is reported, so the
// caller sees the same error at any worker count.
func TestForCtxLowestErrorWins(t *testing.T) {
	errLo := errors.New("low")
	errHi := errors.New("high")
	for trial := 0; trial < 20; trial++ {
		err := ForCtx(context.Background(), 4, 64, 1, func(lo, hi int) error {
			switch lo {
			case 5:
				return errLo
			case 40:
				return errHi
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if errors.Is(err, errHi) {
			t.Fatalf("trial %d: high-range error reported over low-range", trial)
		}
	}
}

// TestForCtxStopsSchedulingAfterFailure verifies the workers stop
// pulling chunks once one has failed.
func TestForCtxStopsSchedulingAfterFailure(t *testing.T) {
	var ran atomic.Int32
	err := ForCtx(context.Background(), 2, 1000, 1, func(lo, hi int) error {
		ran.Add(1)
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got > 10 {
		t.Errorf("%d chunks ran after the first failure; scheduling should stop", got)
	}
}

// TestReduceSumMatchesSerial pins ReduceCtx's result to a serial sum at
// every worker count and grain.
func TestReduceSumMatchesSerial(t *testing.T) {
	const n = 1000
	want := n * (n - 1) / 2
	for _, workers := range []int{1, 2, 8} {
		for _, grain := range []int{1, 7, 64, 5000} {
			got, err := ReduceCtx(context.Background(), workers, n, grain, 0, func(lo, hi int) int {
				s := 0
				for i := lo; i < hi; i++ {
					s += i
				}
				return s
			}, func(acc, part int) int { return acc + part })
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			if got != want {
				t.Errorf("workers=%d grain=%d: ReduceCtx sum = %d want %d", workers, grain, got, want)
			}
		}
	}
}

// TestReduceCtxMatchesReduce pins ReduceCtx's success path to the serial
// fold at every worker count, and a cancelled run to zero.
func TestReduceCtxMatchesReduce(t *testing.T) {
	mapFn := func(lo, hi int) int {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
		return s
	}
	merge := func(a, b int) int { return a + b }
	want, err := ReduceCtx(context.Background(), 1, 500, 13, 0, mapFn, merge)
	if err != nil {
		t.Fatalf("serial ReduceCtx: %v", err)
	}
	for _, workers := range []int{3, 0} {
		got, err := ReduceCtx(context.Background(), workers, 500, 13, 0, mapFn, merge)
		if err != nil {
			t.Fatalf("ReduceCtx(workers=%d): %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: got %d want %d", workers, got, want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := ReduceCtx(ctx, 2, 500, 13, 0, mapFn, merge)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ReduceCtx err = %v", err)
	}
	if got != 0 {
		t.Errorf("cancelled ReduceCtx leaked a partial value %d", got)
	}
}

// TestReduceEmptyRangeReturnsZero verifies an empty range returns the
// zero value without calling mapFn.
func TestReduceEmptyRangeReturnsZero(t *testing.T) {
	got, err := ReduceCtx(context.Background(), 4, 0, 8, -7, func(lo, hi int) int {
		t.Error("mapFn must not run on an empty range")
		return 0
	}, func(acc, part int) int { return acc + part })
	if err != nil || got != -7 {
		t.Errorf("ReduceCtx on empty range = %d, %v want the zero value -7", got, err)
	}
}

// TestReduceFoldOrderIsChunkOrder uses a non-commutative merge (slice
// append) to expose the fold order: the concatenated chunk ranges must
// come back ascending at any worker count, because partials fold in
// chunk order regardless of which worker produced them.
func TestReduceFoldOrderIsChunkOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		got, err := ReduceCtx(context.Background(), workers, 100, 9, nil, func(lo, hi int) []int {
			return []int{lo, hi}
		}, func(acc, part []int) []int { return append(acc, part...) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 2; i < len(got); i += 2 {
			if got[i] != got[i-1] {
				t.Fatalf("workers=%d: chunk ranges out of order: %v", workers, got)
			}
		}
		if got[0] != 0 || got[len(got)-1] != 100 {
			t.Fatalf("workers=%d: chunks do not cover [0,100): %v", workers, got)
		}
	}
}

// TestGroupCtx verifies error propagation and sibling cancellation: once
// one task fails, the derived context stops the others.
func TestGroupCtx(t *testing.T) {
	boom := errors.New("boom")
	g, ctx := NewGroupCtx(context.Background(), 2)
	g.Go(func(context.Context) error { return boom })
	g.Go(func(tctx context.Context) error {
		select {
		case <-tctx.Done():
			return nil // sibling failure cancelled us — expected
		case <-time.After(5 * time.Second):
			return errors.New("derived context never cancelled")
		}
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want task error", err)
	}
	if ctx.Err() == nil {
		t.Error("derived context still live after Wait")
	}
}

// TestGroupPropagatesErrorAndBoundsConcurrency verifies Wait returns
// the failed task's error, at most Workers(workers) tasks run at once,
// and a clean group's Wait returns nil.
func TestGroupPropagatesErrorAndBoundsConcurrency(t *testing.T) {
	g, _ := NewGroupCtx(context.Background(), 3)
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		g.Go(func(context.Context) error {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			mu.Lock()
			if cur > peak.Load() {
				peak.Store(cur)
			}
			mu.Unlock()
			if i == 7 {
				return errors.New("task 7 failed")
			}
			return nil
		})
	}
	if err := g.Wait(); err == nil || err.Error() != "task 7 failed" {
		t.Errorf("Wait = %v", err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("concurrency peak %d exceeds limit 3", p)
	}
	// A clean group returns nil.
	g2, _ := NewGroupCtx(context.Background(), 0)
	g2.Go(func(context.Context) error { return nil })
	if err := g2.Wait(); err != nil {
		t.Errorf("clean Wait = %v", err)
	}
}

// TestGroupCtxParentCancel verifies an outside cancellation surfaces as
// the parent context's error and stops unstarted tasks.
func TestGroupCtxParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, _ := NewGroupCtx(ctx, 2)
	g.Go(func(tctx context.Context) error {
		<-tctx.Done()
		return nil
	})
	cancel()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait = %v, want context.Canceled", err)
	}
	var ran atomic.Bool
	g.Go(func(context.Context) error { ran.Store(true); return nil })
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("second Wait = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Error("task started after the group was cancelled")
	}
}
