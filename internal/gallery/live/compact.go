package live

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"brainprint/internal/defense"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
)

// Snapshot compaction. A compaction folds everything the engine holds —
// base survivors plus the memtable, minus tombstones — into a fresh
// sharded base store for generation g+1, then switches CURRENT to it.
// The expensive parts (copying records into the snapshot is a straight
// memcpy; writing and checksumming the shard files dominates) run off
// the engine lock; the lock is held only to freeze the memtable at the
// start and to swap generations at the end, so queries and mutations
// keep flowing throughout.
//
// Correctness across the concurrent window: at freeze time the active
// memtable becomes the frozen memtable (still queryable, now immutable)
// and tombstones accrued so far move to deadBase (already folded into
// the snapshot, still filtering the OLD base until the swap). Mutations
// during the compaction land in a fresh memtable and the current dead
// set, and keep appending to the OLD generation's log — so a crash at
// any point before the switch recovers the old generation with nothing
// lost. At swap time the new generation's log is seeded with exactly
// the post-freeze state (tombstone deletes in sorted order, then
// memtable enrolls in enrollment order), synced, and only then does
// CURRENT flip.

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
// empty engine (everything deleted) leaves a baseless generation.
func (e *Engine) Compact() error {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.compactingNow.Store(true)
	defer e.compactingNow.Store(false)

	start := time.Now()

	// Phase 1 (write lock): freeze the memtable and fold a snapshot.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.frozen != nil {
		e.mu.Unlock()
		return fmt.Errorf("live: internal error: frozen memtable outside a compaction")
	}
	newGen := e.gen + 1
	// Capture the ANN state under the lock: a base that carries an
	// index gets its successor re-indexed with the same training seed,
	// so the knob survives the generation switch.
	var annSeed int64
	annRebuild := false
	if e.base != nil && e.base.ANNIndex() != nil {
		annRebuild, annSeed = true, e.base.ANNIndex().Seed()
	}
	snap, err := snapshotGallery(e.mem.Features(), e.featureIndexCopy(), func(yield func(string, []float64) error) error {
		for i, id := range e.ids {
			if err := yield(id, e.fingerprint(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.frozen = e.mem
	if idx := e.featureIndexCopy(); idx != nil {
		e.mem = gallery.WithFeatureIndex(idx)
	} else {
		e.mem = gallery.New(e.frozen.Features())
	}
	e.deadBase, e.dead = e.dead, map[string]bool{}
	e.rebuild()
	e.mu.Unlock()

	// Phase 2 (no lock): build and persist the new generation's base.
	// A defended engine folds the snapshot through its anonymization
	// pipeline first and stamps the descriptor into the fresh manifest,
	// so the defense survives the generation switch (and any replica
	// bootstrapped from these files). See DESIGN.md §12 for what
	// re-application means for each transform kind.
	var newBase *shard.Store
	if snap.Len() > 0 {
		if snap, err = defense.Apply(snap, e.opts.Defense, 0); err != nil {
			e.abortFreeze()
			return err
		}
		newBase, err = shard.FromGallery(snap, e.opts.Shards, false)
		if err != nil {
			e.abortFreeze()
			return err
		}
		newBase.SetDefense(e.opts.Defense)
		if err := newBase.WriteFiles(filepath.Join(e.dir, genName(newGen, "bpm"))); err != nil {
			e.abortFreeze()
			return err
		}
		if annRebuild {
			if err := newBase.BuildANN(context.Background(), 0, annSeed, 0); err != nil {
				e.abortFreeze()
				return err
			}
			if err := newBase.SaveANN(filepath.Join(e.dir, genName(newGen, "bpm"))); err != nil {
				e.abortFreeze()
				return err
			}
		}
	}

	// Phase 3 (write lock): seed the new log with the post-freeze
	// mutations, flip CURRENT, and swap the in-memory state.
	e.mu.Lock()
	if e.closed {
		// Close won the race during the unlocked build: the old log is
		// already released, so unwind in memory and leave generation
		// newGen's files as orphans for the next Open to sweep.
		e.mu.Unlock()
		e.abortFreeze()
		return ErrClosed
	}
	seeded, err := e.seedWAL(newGen)
	if err != nil {
		e.mu.Unlock()
		e.abortFreeze()
		return err
	}
	// The seeded log is a reordered, collapsed retelling of history (see
	// replication.go): the new generation starts after sequence
	// oldSeq - records and its seeded prefix replays up to oldSeq, so
	// sequence numbers carry across the switch unchanged.
	oldSeq := e.baseSeq + int64(e.walRecords)
	newBaseSeq := oldSeq - int64(seeded.records)
	if err := writeSeqFile(e.dir, newGen, newBaseSeq, oldSeq); err != nil {
		seeded.w.close()
		e.mu.Unlock()
		e.abortFreeze()
		return err
	}
	if err := writeCurrent(e.dir, newGen); err != nil {
		seeded.w.close()
		e.mu.Unlock()
		e.abortFreeze()
		return err
	}
	oldGen := e.gen
	oldWAL := e.wal
	e.gen = newGen
	e.base = newBase
	if e.nprobe > 0 {
		if newBase != nil {
			// An active fan-out implies the old base carried an index,
			// so the fresh base was re-indexed above; re-applying
			// cannot fail.
			if err := newBase.SetANNProbe(e.nprobe); err != nil {
				panic(fmt.Sprintf("live: re-applying ANN fan-out after compaction: %v", err))
			}
		} else {
			// Everything was deleted: a baseless generation has no
			// index, so the knob resets to exact.
			e.nprobe = 0
		}
	}
	e.frozen = nil
	e.deadBase = map[string]bool{}
	e.wal = seeded.w
	e.walRecords = seeded.records
	e.walBytes = seeded.bytes
	e.walStart = seeded.start
	e.walOff = seeded.ends
	e.baseSeq = newBaseSeq
	e.seedSeq = oldSeq
	e.bump() // generation switched: wake stream waiters pinned to oldGen
	e.rebuild()
	e.mu.Unlock()

	oldWAL.close()
	removeGeneration(e.dir, oldGen)
	e.compactions.Add(1)
	e.lastCompact.Store(time.Since(start).Microseconds())
	return nil
}

// abortFreeze unwinds a failed compaction, restoring exactly the state
// a crash-and-replay of the old generation's log would produce: frozen
// records not deleted during the window fold back in front of the
// active memtable (a frozen record deleted — and possibly re-enrolled —
// during the window must NOT resurrect), the already-folded tombstones
// rejoin the live set, and the tombstone set is pruned back to its
// invariant (only IDs present in the base — entries for dropped frozen
// records would otherwise poison the next compaction's seeded log with
// deletes of never-enrolled subjects).
func (e *Engine) abortFreeze() {
	e.mu.Lock()
	defer e.mu.Unlock()
	var merged *gallery.Gallery
	if e.fidx != nil {
		merged = gallery.WithFeatureIndex(e.fidx)
	} else {
		merged = gallery.New(e.features)
	}
	for i, id := range e.frozen.IDs() {
		if e.dead[id] {
			continue
		}
		if err := merged.EnrollNormalized(id, e.frozen.Fingerprint(i)); err != nil {
			panic(fmt.Sprintf("live: unwinding failed compaction: %v", err))
		}
	}
	for i, id := range e.mem.IDs() {
		if err := merged.EnrollNormalized(id, e.mem.Fingerprint(i)); err != nil {
			panic(fmt.Sprintf("live: unwinding failed compaction: %v", err))
		}
	}
	e.mem = merged
	e.frozen = nil
	for id := range e.deadBase {
		e.dead[id] = true
	}
	e.deadBase = map[string]bool{}
	if e.base != nil {
		for id := range e.dead {
			if e.base.Index(id) < 0 {
				delete(e.dead, id)
			}
		}
	} else {
		e.dead = map[string]bool{}
	}
	e.rebuild()
}

// seededWAL is the outcome of seeding a fresh generation's log segment.
type seededWAL struct {
	w       *walWriter
	start   int64   // offset just past the segment header
	bytes   int64   // total committed segment length
	records int     // seeded record count
	ends    []int64 // offset just past each seeded record
}

// seedWAL writes generation gen's log segment containing the current
// post-freeze overlay — tombstone deletes in sorted order, then
// memtable enrolls in enrollment order — and syncs it, so the segment
// replays to exactly the state the swap leaves in memory. The writer's
// rollback offset is advanced past the seeded batch: truncating to the
// header on a later failed append would otherwise cut the seed away.
// Called with the write lock held.
func (e *Engine) seedWAL(gen int) (seededWAL, error) {
	w, n, err := createWAL(filepath.Join(e.dir, genName(gen, "bpw")),
		walHeader{features: e.mem.Features(), featureIndex: e.featureIndexCopy()}, !e.opts.NoSync)
	if err != nil {
		return seededWAL{}, err
	}
	out := seededWAL{w: w, start: n}
	var batch []byte
	add := func(frame []byte) {
		batch = append(batch, frame...)
		out.records++
		out.ends = append(out.ends, n+int64(len(batch)))
	}
	for _, id := range sortedKeys(e.dead) {
		add(encodeWALRecord(walKindDelete, id, nil))
	}
	for i, id := range e.mem.IDs() {
		add(encodeWALRecord(walKindEnroll, id, e.mem.Fingerprint(i)))
	}
	if len(batch) > 0 {
		if _, err := w.f.Write(batch); err != nil {
			w.close()
			return seededWAL{}, err
		}
	}
	if err := w.f.Sync(); err != nil {
		w.close()
		return seededWAL{}, err
	}
	w.off = n + int64(len(batch))
	out.bytes = w.off
	return out, nil
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
	var snap *gallery.Gallery
	if featureIndex != nil {
		snap = gallery.WithFeatureIndex(featureIndex)
	} else {
		snap = gallery.New(features)
	}
	err := iterate(func(id string, vec []float64) error {
		return snap.EnrollNormalized(id, vec)
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}
