package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForCtx is ForWith for fallible, cancellable chunks: it splits [0, n)
// into chunks of at most grain indices, processes them on
// Workers(workers) goroutines, and stops pulling new chunks as soon as
// ctx is cancelled or any chunk fails. A cancelled run returns
// ctx.Err(); a failed run returns the error of the lowest failed range,
// so the reported error does not depend on scheduling; chunk errors win
// over a concurrent cancellation so a real failure is never masked.
//
// Unlike ForWith, the serial path still iterates chunk by chunk
// (checking ctx between chunks) instead of collapsing to one fn(0, n)
// call, so cancellation stays prompt at any worker count. fn must treat
// [lo, hi) as its exclusive territory; on success the output is
// bit-identical to the same fn run serially, because chunk boundaries
// and ownership do not depend on ctx or scheduling.
func ForCtx(ctx context.Context, workers, n, grain int, fn func(lo, hi int) error) error {
	w, _ := plan(workers, &n, &grain)
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += grain {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		err    error
		errLo  int
	)
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				if e := fn(lo, hi); e != nil {
					mu.Lock()
					if err == nil || lo < errLo {
						err, errLo = e, lo
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// ReduceCtx maps disjoint chunks of [0, n) — each at most grain
// indices — to partial results on Workers(workers) goroutines, then
// folds the partials serially in ascending chunk order starting from
// zero:
//
//	acc = merge(...merge(merge(zero, p₀), p₁)..., p₍c₋₁₎)
//
// The chunk boundaries and the fold order are functions of (n, grain)
// alone, never of the worker count or scheduling, so ReduceCtx is
// deterministic whenever mapFn and merge are. On cancellation it stops
// mapping and returns (zero, ctx.Err()) without folding, so a partial
// reduction is never observable.
func ReduceCtx[T any](ctx context.Context, workers, n, grain int, zero T, mapFn func(lo, hi int) T, merge func(acc, part T) T) (T, error) {
	if grain < 1 {
		grain = 1
	}
	if n <= 0 {
		return zero, ctx.Err()
	}
	chunks := (n + grain - 1) / grain
	partials := make([]T, chunks)
	err := ForCtx(ctx, workers, chunks, 1, func(lo, hi int) error {
		for c := lo; c < hi; c++ {
			clo := c * grain
			chi := clo + grain
			if chi > n {
				chi = n
			}
			partials[c] = mapFn(clo, chi)
		}
		return nil
	})
	if err != nil {
		return zero, err
	}
	acc := zero
	for _, p := range partials {
		acc = merge(acc, p)
	}
	return acc, nil
}

// GroupCtx is an errgroup-style fan-out: tasks submitted with Go run on
// at most Workers(workers) goroutines, and its derived context is
// cancelled as soon as any task fails or the parent context is
// cancelled, so sibling tasks (and the loops they run via ForCtx) abort
// early instead of finishing doomed work.
type GroupCtx struct {
	parent context.Context
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

// NewGroupCtx returns a group bounded by Workers(workers) goroutines and
// the derived context its tasks should run under.
func NewGroupCtx(ctx context.Context, workers int) (*GroupCtx, context.Context) {
	child, cancel := context.WithCancel(ctx)
	return &GroupCtx{parent: ctx, ctx: child, cancel: cancel, sem: make(chan struct{}, Workers(workers))}, child
}

// Go submits a task, blocking until a worker slot frees up. If the group
// context is already cancelled the task is not started — Wait will
// report why.
func (g *GroupCtx) Go(fn func(ctx context.Context) error) {
	if g.ctx.Err() != nil {
		return
	}
	g.wg.Add(1)
	g.sem <- struct{}{}
	go func() {
		defer func() {
			<-g.sem
			g.wg.Done()
		}()
		if g.ctx.Err() != nil {
			return
		}
		if err := fn(g.ctx); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

// Wait blocks until every submitted task has finished, cancels the
// derived context, and returns the first task error — or the parent
// context's error when the run was cancelled from outside.
func (g *GroupCtx) Wait() error {
	g.wg.Wait()
	g.cancel()
	if g.err != nil {
		return g.err
	}
	return g.parent.Err()
}
