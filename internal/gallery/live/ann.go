package live

import (
	"context"
	"fmt"
	"path/filepath"

	"brainprint/internal/gallery/ivf"
	"brainprint/internal/gallery/shard"
)

// The live engine's ANN surface. The coarse index belongs to the
// immutable base store — the overwhelming share of a compacted
// engine's records — and the overlay (the memtable, which compaction
// keeps small) is always swept exactly, so enabling the
// index never costs overlay recall. Open picks up the current
// generation's sidecar automatically (shard.Open loads it beside the
// manifest); BuildANN trains one online without blocking queries; and
// compaction rebuilds the index for each fresh generation whenever the
// superseded base carried one, reusing its training seed, so the knob
// survives generation switches.

// HasANNIndex reports whether the current base store carries an IVF
// coarse index.
func (e *Engine) HasANNIndex() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.base != nil && e.base.HasANNIndex()
}

// ANNProbe reports the active cell fan-out (0 = exact scan).
func (e *Engine) ANNProbe() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nprobe
}

// SetANNProbe selects how many index cells the base scan probes: 0
// returns to the exact sweep; a positive nprobe requires the base to
// carry an index (shard.ErrNoANNIndex otherwise).
// The setting survives compactions — each fresh base is re-indexed and
// the fan-out re-applied at the generation swap.
func (e *Engine) SetANNProbe(nprobe int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if nprobe < 0 {
		return fmt.Errorf("live: nprobe %d must be non-negative", nprobe)
	}
	if nprobe > 0 && (e.base == nil || !e.base.HasANNIndex()) {
		return shard.ErrNoANNIndex
	}
	if e.base != nil {
		if err := e.base.SetANNProbe(nprobe); err != nil {
			return err
		}
	}
	e.nprobe = nprobe
	return nil
}

// BuildANN trains an IVF coarse index over the current base store and
// persists it as the generation manifest's sidecar, without blocking
// queries: the base and generation are snapshotted under the lock,
// training runs off-lock (it only reads the immutable base), and the
// index attaches in a short write-locked window — refused if a
// compaction swapped generations mid-build, since the index would
// describe a base that no longer serves. cells 0 picks the default
// cell count for the base's size. An engine without a base (never
// compacted, or everything deleted) has nothing to index.
func (e *Engine) BuildANN(ctx context.Context, cells int, seed int64, parallelism int) error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	base, gen := e.base, e.gen
	e.mu.RUnlock()
	if base == nil {
		return fmt.Errorf("live: no base store to index (compact first)")
	}
	x, err := base.TrainANN(ctx, cells, seed, parallelism)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.gen != gen || e.base != base {
		return fmt.Errorf("live: gallery compacted during the index build (generation %d -> %d); retry", gen, e.gen)
	}
	if err := base.AttachANN(x); err != nil {
		return err
	}
	return x.WriteFile(ivf.SidecarPath(filepath.Join(e.dir, genName(gen, "bpm"))))
}
