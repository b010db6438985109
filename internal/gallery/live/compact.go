package live

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"brainprint/internal/defense"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
)

// Snapshot compaction: cut, build, swap. A compaction folds everything
// the engine holds at the cut — base survivors plus the memtable, minus
// tombstones — into a fresh sharded base store for generation g+1, then
// switches CURRENT to it. The cut copies the visible records (a
// straight memcpy) under the read lock, beside running queries; the
// build (writing and checksumming the shard files dominates) takes no
// lock at all; only the swap takes the write lock.
//
// The engine has no compaction state. Between cut and swap it is in its
// ordinary steady state — mutations land in the memtable and the
// tombstone set and append to the OLD generation's log exactly as at
// any other time — so a crash, a failure or a Close at any point before
// CURRENT flips leaves the old generation with nothing lost and nothing
// to unwind. The swap carries the old log's committed bytes past the
// cut into the new segment verbatim, syncs them, writes the sidecar
// (baseSeq' = baseSeq + records folded at the cut), flips CURRENT, and
// replaces the view with the one the new base plus a replay of that
// tail yields — the same applyRecord replay Open runs, so the in-memory
// state after a switch is what a restart would recover, and every
// position past baseSeq' of the new log is byte-for-byte the history
// the old log told.

// maybeKickCompaction schedules a background compaction when the log
// has grown past the configured threshold. Called with the write lock
// held.
func (e *Engine) maybeKickCompaction() {
	if e.opts.CompactAfter <= 0 || e.walRecords < e.opts.CompactAfter || e.closed {
		return
	}
	if !e.compactKick.CompareAndSwap(false, true) {
		return // one already scheduled or running
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.compactKick.Store(false)
		// A mutation racing Close can win the kick; Compact re-checks
		// closed under the lock and refuses, so the error is dropped
		// deliberately here — there is no caller to report it to.
		_ = e.Compact()
	}()
}

// Compact folds the write-ahead log and memtable overlay into a fresh
// immutable base store under a generation switch, then removes the
// previous generation's files. Concurrent queries and mutations
// proceed throughout; concurrent Compact calls serialize. Compacting an
// empty engine (everything deleted) leaves a baseless generation. A
// failed compaction leaves the engine as it was; files it wrote for the
// next generation are overwritten by the next attempt or swept at the
// next Open.
func (e *Engine) Compact() error {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.compactingNow.Store(true)
	defer e.compactingNow.Store(false)

	start := time.Now()
	c, err := e.cutSnapshot()
	if err != nil {
		return err
	}
	next, err := e.buildGeneration(c)
	if err != nil {
		return err
	}
	if err := e.swapGeneration(c, next); err != nil {
		return err
	}
	e.compactions.Add(1)
	e.lastCompact.Store(time.Since(start).Microseconds())
	return nil
}

// compactCut is what a compaction remembers of the instant it cut its
// snapshot.
type compactCut struct {
	gen  int              // the generation being built
	snap *gallery.Gallery // the records visible at the cut
	// records and bytes locate the cut in the old generation's log: how
	// many committed records the snapshot folds, and the offset just
	// past them.
	records int
	bytes   int64
	// annSeed is the training seed of the index the base carried at the
	// cut (annRebuild false for none): its successor is re-indexed with
	// the same seed, so the knob survives the generation switch.
	annRebuild bool
	annSeed    int64
}

// cutSnapshot is compaction's first step: under the read lock it
// copies the visible records and notes where the log stood.
func (e *Engine) cutSnapshot() (compactCut, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return compactCut{}, ErrClosed
	}
	c := compactCut{gen: e.gen + 1, records: e.walRecords, bytes: e.walBytes}
	if e.base != nil && e.base.ANNIndex() != nil {
		c.annRebuild, c.annSeed = true, e.base.ANNIndex().Seed()
	}
	var err error
	c.snap, err = snapshotGallery(e.features, e.fidx, func(yield func(string, []float64) error) error {
		for i, id := range e.ids {
			if err := yield(id, e.fingerprint(i)); err != nil {
				return err
			}
		}
		return nil
	})
	return c, err
}

// buildGeneration is compaction's second step, off the lock: it builds
// and persists generation c.gen's base and returns the view a fresh
// generation over it starts from (baseless when the snapshot is
// empty). A defended engine folds the snapshot through its
// anonymization pipeline first and stamps the descriptor into the fresh
// manifest, so the defense survives the generation switch (and any
// replica bootstrapped from these files). See DESIGN.md §12 for what
// re-application means for each transform kind.
func (e *Engine) buildGeneration(c compactCut) (*view, error) {
	var base *shard.Store
	if c.snap.Len() > 0 {
		snap, err := defense.Apply(c.snap, e.opts.Defense, 0)
		if err != nil {
			return nil, err
		}
		if base, err = shard.FromGallery(snap, e.opts.Shards, false); err != nil {
			return nil, err
		}
		base.SetDefense(e.opts.Defense)
		manifest := filepath.Join(e.dir, genName(c.gen, "bpm"))
		if err := base.WriteFiles(manifest); err != nil {
			return nil, err
		}
		if c.annRebuild {
			if err := base.BuildANN(context.Background(), 0, c.annSeed, 0); err != nil {
				return nil, err
			}
			if err := base.SaveANN(manifest); err != nil {
				return nil, err
			}
		}
	}
	return newView(e.features, e.fidx, base), nil
}

// swapGeneration is compaction's last step, under the write lock. Every
// step that can fail runs before CURRENT flips and touches only next
// and generation c.gen's files; after the flip there is nothing left
// to fail.
func (e *Engine) swapGeneration(c compactCut, next *view) error {
	e.mu.Lock()
	if e.closed {
		// Close won the race during the unlocked build; generation
		// c.gen's files stay behind as orphans for the next Open to sweep.
		e.mu.Unlock()
		return ErrClosed
	}
	oldGen, oldWAL := e.gen, e.wal
	err := e.switchTo(c, next)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	oldWAL.close()
	removeGeneration(e.dir, oldGen)
	return nil
}

// switchTo does swapGeneration's work. Called with the write lock held.
func (e *Engine) switchTo(c compactCut, next *view) error {
	// The mutations committed since the cut: read off the open segment,
	// replayed onto the fresh view exactly as Open would replay them.
	tail := make([]byte, e.walBytes-c.bytes)
	if _, err := e.wal.f.ReadAt(tail, c.bytes); err != nil {
		return fmt.Errorf("live: reading the write-ahead log past the compaction cut: %w", err)
	}
	// Both segments carry the same header, so the tail keeps its offsets.
	hdr := e.walHeader()
	replayed, err := replayWAL(bufio.NewReader(bytes.NewReader(tail)), hdr, e.walStart, e.walStart+int64(len(tail)), next.applyRecord)
	if err == nil && replayed.records != e.walRecords-c.records {
		err = fmt.Errorf("%w: %d of %d records past the compaction cut replayed", ErrWALCorrupt, replayed.records, e.walRecords-c.records)
	}
	if err != nil {
		return err
	}
	// The ANN fan-out carries over; a baseless generation has no index,
	// so there the knob resets to exact. The fresh base was re-indexed
	// iff the old one carried an index at the cut, so this fails only
	// when an index was attached and switched on since.
	nprobe := e.nprobe
	if next.base == nil {
		nprobe = 0
	} else if err := next.base.SetANNProbe(nprobe); err != nil {
		return fmt.Errorf("live: re-applying the ANN fan-out to generation %d: %w", c.gen, err)
	}
	// Durable, in order: the new segment with the tail, the sidecar
	// numbering it, and only then the pointer that makes them current.
	w, _, err := createWAL(filepath.Join(e.dir, genName(c.gen, "bpw")), hdr, tail, !e.opts.NoSync)
	if err != nil {
		return err
	}
	newBaseSeq := e.baseSeq + int64(c.records)
	if err = writeSeqFile(e.dir, c.gen, newBaseSeq); err == nil {
		err = writeCurrent(e.dir, c.gen)
	}
	if err != nil {
		w.close()
		return err
	}
	e.gen, e.view, e.nprobe, e.wal = c.gen, *next, nprobe, w
	e.adoptLog(replayed)
	e.baseSeq = newBaseSeq
	e.bump() // generation switched: wake stream waiters pinned to the old one
	return nil
}

// removeGeneration deletes a superseded generation's manifest, shard
// files, and log. Best-effort: a leftover is swept at the next Open.
func removeGeneration(dir string, gen int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	prefix := fmt.Sprintf("live.g%04d.", gen)
	for _, ent := range entries {
		if len(ent.Name()) >= len(prefix) && ent.Name()[:len(prefix)] == prefix {
			_ = os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// snapshotGallery copies an iteration of (id, normalized vector) pairs
// into a fresh gallery — the verbatim record move (EnrollNormalized, no
// renormalization) that keeps every stored bit across compactions and
// migrations.
func snapshotGallery(features int, featureIndex []int, iterate func(yield func(string, []float64) error) error) (*gallery.Gallery, error) {
	snap := newMemtable(features, featureIndex)
	err := iterate(func(id string, vec []float64) error {
		return snap.EnrollNormalized(id, vec)
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}
