// Package parallel is the shared execution layer of the attack pipeline:
// a bounded worker pool keyed to GOMAXPROCS, a range-splitting For loop
// with dynamic chunk scheduling, an errgroup-style fan-out with
// first-error propagation, and a seed-derivation mixer that gives every
// concurrently executed experiment cell its own deterministic RNG stream.
//
// Everything is stdlib-only. All helpers accept a Parallelism knob with
// the convention used across the codebase: 0 (or negative) means "the
// package default" (all cores unless overridden by SetDefault), 1 means
// strictly serial (the work runs inline on the calling goroutine), and
// n > 1 pins exactly n workers.
//
// The kernels built on this package are written so that the worker count
// never changes results: range workers write disjoint output regions and
// randomized sweeps draw from per-cell derived seeds, so Parallelism: 1
// and Parallelism: 0 are bit-identical.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers overrides the GOMAXPROCS fallback when positive.
var defaultWorkers atomic.Int32

// SetDefault sets the process-wide default worker count used when a
// Parallelism knob is 0 or negative. n <= 0 restores the GOMAXPROCS
// default. Benchmarks use it to pin the whole stack — including the
// linalg kernels, which have no per-call knob — to serial or parallel.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Workers resolves a Parallelism knob to a concrete worker count:
// p > 0 is used as-is; otherwise the SetDefault value applies, falling
// back to GOMAXPROCS.
func Workers(p int) int {
	if p > 0 {
		return p
	}
	if d := int(defaultWorkers.Load()); d > 0 {
		return d
	}
	return runtime.GOMAXPROCS(0)
}

// For processes the index range [0, n) with the default worker count.
// See ForWith.
func For(n, grain int, fn func(lo, hi int)) {
	ForWith(0, n, grain, fn)
}

// ForWith splits [0, n) into contiguous chunks of at most grain indices
// and processes them on Workers(workers) goroutines. Chunks are handed
// out dynamically (an atomic cursor), so uneven per-index work — e.g.
// the triangular loops of connectome construction — still balances.
// When a single worker (or a single chunk) remains, fn runs inline as
// one [0, n) call, which is the serial path.
//
// fn must treat [lo, hi) as its exclusive territory; disjoint ranges may
// run concurrently.
func ForWith(workers, n, grain int, fn func(lo, hi int)) {
	w, ok := plan(workers, &n, &grain)
	if n <= 0 {
		return
	}
	if !ok {
		fn(0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// plan normalizes the loop parameters and reports whether a concurrent
// run is worthwhile; on a concurrent run it returns the worker count.
func plan(workers int, n, grain *int) (int, bool) {
	if *grain < 1 {
		*grain = 1
	}
	if *n <= 0 {
		return 0, false
	}
	w := Workers(workers)
	if chunks := (*n + *grain - 1) / *grain; w > chunks {
		w = chunks
	}
	return w, w > 1
}

// DeriveSeed mixes a root seed with an index path (e.g. noise level,
// trial) into an independent child seed via splitmix64. Experiment
// sweeps give each concurrently executed cell its own rand.Source seeded
// this way, which is what keeps parallel and serial runs bit-identical:
// the stream a cell draws no longer depends on how many cells ran
// before it.
func DeriveSeed(root int64, path ...int64) int64 {
	h := uint64(root)
	for _, p := range path {
		h = splitmix64(h ^ splitmix64(uint64(p)))
	}
	return int64(splitmix64(h))
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
