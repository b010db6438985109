// Package attacker implements the stateful, context-aware session API
// of the reproduction. The paper's threat model (§2) is inherently a
// long-lived session: an adversary enrolls one de-anonymized dataset
// once and then re-identifies subjects in any number of anonymized
// releases. An Attacker owns that state — the enrolled fingerprint
// gallery and the execution knobs — and serves every probe, batch and
// stream request under a context.Context, so callers (the HTTP service,
// the facade, tests) get cancellation, per-request deadlines, and
// shared worker-pool backing without re-plumbing configuration through
// free functions. The paper's experiments are not on the session; they
// run through internal/experiments.
//
// Construction uses functional options:
//
//	a, err := attacker.New(g,
//		attacker.WithParallelism(8),
//		attacker.WithTopK(5),
//		attacker.WithAssignment(true))
//
// All identification scores are bit-identical to the stateless
// pipeline (gallery.QueryAll / match.SimilarityMatrix) at any
// parallelism setting; the session adds lifecycle, not arithmetic.
package attacker

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/parallel"
)

// ErrNoGallery is returned by New when no gallery engine is set after
// every option has run: a session without an engine can answer nothing.
var ErrNoGallery = errors.New("attacker: session has no enrolled gallery")

// Attacker is a long-lived identification session: an enrolled gallery
// engine plus the query knobs, shared by every query it serves. The
// engine may be a sharded store (internal/gallery/shard; a single-file
// gallery is served as a one-shard store), a live engine or a replica —
// the session is written against gallery.Engine and never cares which.
// The zero value is not usable; construct with New. An Attacker is safe
// for concurrent use once constructed — all state is read-only after
// New.
type Attacker struct {
	gallery     gallery.Engine
	mutable     gallery.Mutable // non-nil only when built WithMutableGallery
	parallelism int
	topK        int
	assignment  bool
	timeout     time.Duration
	nprobe      int
	nprobeSet   bool
}

// Option configures an Attacker during New. Options are applied in
// order, so later options override earlier ones.
type Option func(*Attacker) error

// WithParallelism bounds the worker count of every sweep the session
// runs: 0 = all cores, 1 = serial, n = n workers. Results are identical
// at any setting.
func WithParallelism(n int) Option {
	return func(a *Attacker) error {
		if n < 0 {
			n = 0
		}
		a.parallelism = n
		return nil
	}
}

// WithTopK sets how many ranked candidates each identification returns
// (default 1, the paper's argmax prediction).
func WithTopK(k int) Option {
	return func(a *Attacker) error {
		if k <= 0 {
			return fmt.Errorf("attacker: WithTopK(%d): k must be positive", k)
		}
		a.topK = k
		return nil
	}
}

// WithAssignment enables the optimal one-to-one assignment
// (Hungarian) on batch identifications: IdentifyBatch additionally
// returns a bijective probe→subject assignment, the strengthening of
// the paper's independent argmax that applies when both datasets cover
// the same population. Requires a square batch (as many probes as
// enrolled subjects).
func WithAssignment(on bool) Option {
	return func(a *Attacker) error {
		a.assignment = on
		return nil
	}
}

// WithMutableGallery enrolls a live, writable gallery engine
// (internal/gallery/live) as the session's gallery: every
// identification method queries it, and Mutable exposes its write
// surface so serving layers can accept online enrollment and deletion.
// The engine's own synchronization makes the session safe for
// concurrent use even while the gallery mutates underneath —
// identification sweeps snapshot the gallery for their duration, so
// each answer is consistent, and answers reflect every mutation
// committed before the sweep began. Overrides any engine passed to
// New.
func WithMutableGallery(m gallery.Mutable) Option {
	return func(a *Attacker) error {
		if isNilEngine(m) {
			return fmt.Errorf("attacker: WithMutableGallery(nil)")
		}
		a.gallery = m
		a.mutable = m
		return nil
	}
}

// WithTimeout sets a default per-call deadline applied to every
// Identify/IdentifyBatch invocation (0, the default, means none). An
// explicit earlier deadline on the caller's context still wins.
func WithTimeout(d time.Duration) Option {
	return func(a *Attacker) error {
		if d < 0 {
			return fmt.Errorf("attacker: WithTimeout(%v): negative timeout", d)
		}
		a.timeout = d
		return nil
	}
}

// WithANN selects the engine's ANN cell fan-out: queries scan only the
// nprobe index cells nearest the probe instead of every record. 0 (the
// default) disables the index and scans exactly. The knob trades
// recall for speed, never score fidelity — every returned score is the
// exact float64 expression, bit-identical to the dense path, and
// nprobe at or above the index's cell count is bit-identical to the
// exact scan outright (see DESIGN.md §9). A positive nprobe requires
// an engine with a loaded IVF index (built by `gallery index` or
// live.Engine.BuildANN); the setting is applied once, after all
// options.
func WithANN(nprobe int) Option {
	return func(a *Attacker) error {
		if nprobe < 0 {
			return fmt.Errorf("attacker: WithANN(%d): nprobe must be non-negative", nprobe)
		}
		a.nprobe, a.nprobeSet = nprobe, true
		return nil
	}
}

// applyANN pushes a requested ANN fan-out to the session's engine
// after every option has applied.
func (a *Attacker) applyANN() error {
	if !a.nprobeSet {
		return nil
	}
	return a.gallery.SetANNProbe(a.nprobe)
}

// New builds a session over an enrolled gallery engine — a *shard.Store
// (shard.Wrap serves a single-file *gallery.Gallery as one shard), a
// live engine or a replica. g may be nil only when an option supplies
// the engine (WithMutableGallery); with no engine set after every option
// has run, New returns ErrNoGallery.
func New(g gallery.Engine, opts ...Option) (*Attacker, error) {
	if isNilEngine(g) {
		g = nil
	}
	a := &Attacker{gallery: g, topK: 1}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	if a.gallery == nil {
		return nil, ErrNoGallery
	}
	if err := a.applyANN(); err != nil {
		return nil, err
	}
	return a, nil
}

// isNilEngine detects a typed-nil engine (a nil *shard.Store passed
// through the interface parameter), which would otherwise dodge New's
// ErrNoGallery check and panic inside a query.
func isNilEngine(g gallery.Engine) bool {
	if g == nil {
		return true
	}
	v := reflect.ValueOf(g)
	return v.Kind() == reflect.Pointer && v.IsNil()
}

// Gallery returns the enrolled gallery engine.
func (a *Attacker) Gallery() gallery.Engine { return a.gallery }

// Mutable returns the session's writable gallery engine, or nil when
// the session was built over a read-only engine — the switch serving
// layers use to decide whether write endpoints exist.
func (a *Attacker) Mutable() gallery.Mutable { return a.mutable }

// TopK returns the per-identification candidate count.
func (a *Attacker) TopK() int { return a.topK }

// Parallelism returns the session's worker knob (0 = all cores).
func (a *Attacker) Parallelism() int { return a.parallelism }

// deadline derives the working context: the session's default timeout
// when one is configured, the caller's context unchanged otherwise.
func (a *Attacker) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if a.timeout > 0 {
		return context.WithTimeout(ctx, a.timeout)
	}
	return ctx, func() {}
}

// Identify ranks the topK enrolled subjects most correlated with the
// probe, best first. The probe may be a gallery-space vector or a raw
// connectome vector when the gallery carries a feature index.
// Cancellation aborts the sweep between chunks and returns ctx.Err().
func (a *Attacker) Identify(ctx context.Context, probe []float64) ([]gallery.Candidate, error) {
	return a.IdentifyTopK(ctx, probe, a.topK)
}

// IdentifyTopK is Identify with an explicit per-call candidate count —
// the entry point serving layers use when a request overrides the
// session default.
func (a *Attacker) IdentifyTopK(ctx context.Context, probe []float64, k int) ([]gallery.Candidate, error) {
	ctx, cancel := a.deadline(ctx)
	defer cancel()
	return a.gallery.TopKCtx(ctx, probe, k, a.parallelism)
}

// BatchResult is the outcome of one batch identification.
type BatchResult struct {
	// Ranked holds, per probe column, the topK candidates best first.
	// Scores are bit-identical to the engine's QueryAll and to the rows
	// of match.SimilarityMatrix at any parallelism setting.
	Ranked [][]gallery.Candidate
	// Assignment is the optimal one-to-one probe→subject matching
	// (Assignment[j] = enrolled index assigned to probe j); nil unless
	// the session was built WithAssignment(true).
	Assignment []int
}

// IdentifyBatch attacks a whole anonymized release at once: probes are
// the columns of a features×probes matrix. With WithAssignment(true)
// the result additionally carries the Hungarian bijection over the
// dense similarity matrix.
func (a *Attacker) IdentifyBatch(ctx context.Context, probes *linalg.Matrix) (*BatchResult, error) {
	return a.IdentifyBatchTopK(ctx, probes, a.topK, a.assignment)
}

// IdentifyBatchTopK is IdentifyBatch with an explicit per-call
// candidate count and assignment switch — the entry point serving
// layers use when a request overrides the session defaults. Scores are
// bit-identical to the session-default path at any parallelism.
//
// With assignment the gallery×probes correlations are computed exactly
// once: the dense matrix the Hungarian matching needs also yields the
// per-probe top-k (the scores are the same bits, per the gallery's
// equivalence contract), so the sweep is never run twice.
func (a *Attacker) IdentifyBatchTopK(ctx context.Context, probes *linalg.Matrix, k int, assignment bool) (*BatchResult, error) {
	ctx, cancel := a.deadline(ctx)
	defer cancel()
	if !assignment {
		ranked, err := a.gallery.QueryAllCtx(ctx, probes, k, a.parallelism)
		if err != nil {
			return nil, err
		}
		return &BatchResult{Ranked: ranked}, nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("attacker: k=%d must be positive", k)
	}
	sim, ids, err := a.gallery.DenseSimilarityCtx(ctx, probes, a.parallelism)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{Ranked: rankedFromDense(sim, ids, k)}
	if res.Assignment, err = match.AssignmentMatch(sim); err != nil {
		return nil, err
	}
	return res, nil
}

// rankedFromDense extracts the per-probe top-k from a gallery×probes
// similarity matrix under the order every engine ranks by
// (gallery.BetterByID: score descending, ties toward the smaller ID), so
// the assignment path returns the same ranking as the plain query. ids
// labels the rows; it is the snapshot the matrix was scored from, so a
// mutation landing after the scan cannot relabel or overrun a row.
func rankedFromDense(sim *linalg.Matrix, ids []string, k int) [][]gallery.Candidate {
	n, m := sim.Dims()
	if k > n {
		k = n
	}
	out := make([][]gallery.Candidate, m)
	for j := 0; j < m; j++ {
		r := gallery.NewRanker(k)
		for i := 0; i < n; i++ {
			r.Offer(gallery.Candidate{Index: i, ID: ids[i], Score: sim.At(i, j)})
		}
		out[j] = r.Ranked()
	}
	return out
}

// Probe is one streamed identification request.
type Probe struct {
	// ID is an opaque caller label echoed back on the result.
	ID string
	// Vector is the probe fingerprint (gallery-space or raw).
	Vector []float64
}

// StreamResult is one streamed identification outcome.
type StreamResult struct {
	// Probe echoes the request (results arrive in completion order, not
	// submission order).
	Probe Probe
	// Candidates are the topK matches, best first; nil when Err is set.
	Candidates []gallery.Candidate
	// Err reports a per-probe failure (dimension mismatch, …) or the
	// context error that stopped the stream.
	Err error
}

// IdentifyStream attacks an unbounded probe stream: it consumes probes
// until the channel closes or ctx is cancelled, fanning work out over
// Parallelism workers, and sends one StreamResult per probe on the
// returned channel, which is closed when the stream drains. Results
// arrive in completion order; use Probe.ID to correlate. A cancelled
// context stops the workers promptly — probes already in flight finish,
// unread probes are dropped.
func (a *Attacker) IdentifyStream(ctx context.Context, probes <-chan Probe) <-chan StreamResult {
	workers := parallel.Workers(a.parallelism)
	out := make(chan StreamResult, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case p, ok := <-probes:
					if !ok {
						return
					}
					r := StreamResult{Probe: p}
					// The outer fan-out owns the cores; each probe
					// sweeps serially.
					r.Candidates, r.Err = a.gallery.TopKCtx(ctx, p.Vector, a.topK, 1)
					select {
					case out <- r:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
