// Package live is the writable gallery engine: a crash-safe,
// concurrently mutable store that keeps the immutable sharded engine's
// query contract while accepting online enrollment and deletion. The
// source paper's linkage setting — like every population-scale
// record-linkage attack — has an auxiliary database that grows over
// time: the adversary (or the data steward auditing re-identification
// risk) keeps acquiring identified records and must fold them in
// without rebuilding or restarting the service. This package makes the
// gallery a live store:
//
//   - Mutations commit to a CRC-framed write-ahead log (wal.go) with an
//     fsync before they become visible to queries, then apply to an
//     in-memory memtable overlay.
//   - Queries sweep the immutable base store and the overlay through
//     the same exact-scan driver (a memtable is a gallery, scannable as
//     it stands) under the same (score descending, subject ID ascending)
//     strict total order as the sharded engine, with bit-identical
//     scores: a live gallery answers exactly like a cold gallery
//     offline-enrolled with the same records.
//   - Snapshot compaction (compact.go) folds the log into fresh shard
//     files under a generation switch (an atomic CURRENT rename), off
//     the query path: the snapshot copy shares the read lock with
//     queries and only the final swap takes the write lock.
//   - Open replays the log, truncating a torn tail (a crash mid-append)
//     and failing hard on interior corruption — see wal.go for the
//     recovery rule and DESIGN.md §7 for why the distinction matters.
//
// The on-disk layout of a live directory is
//
//	CURRENT                  the current generation number, text
//	live.g0000.bpw           generation 0 write-ahead log
//	live.g0001.bpm           generation 1 base manifest (after compaction)
//	live.g0001.s000.bpg ...  generation 1 shard files
//	live.g0001.bpw           generation 1 write-ahead log
//
// where every generation's manifest + shards + log are written and
// synced in full before CURRENT is atomically renamed to point at them,
// so a crash at any instant leaves a consistent generation to recover.
package live

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"brainprint/internal/defense"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
)

// Options tunes a live engine at Create/Open time.
type Options struct {
	// Shards is the shard count compaction writes the base store with
	// (default 1; CreateFromStore inherits the source store's count).
	Shards int
	// CompactAfter triggers a background compaction once the
	// write-ahead log holds at least this many records (0, the default,
	// means compaction is manual-only via Compact).
	CompactAfter int
	// NoSync disables the per-commit fsync — throughput for crash
	// safety, the classic trade. Only for bulk loads and tests; the
	// default (false) syncs every commit.
	NoSync bool
	// Defense is the anonymization pipeline every base build passes its
	// snapshot through (defense.Apply): the seed snapshot of
	// CreateFromStore and every compaction's fold. The descriptor is
	// persisted in each base's manifest, and Open inherits it from the
	// loaded base when this field is nil — so a defended live gallery
	// (and any replica bootstrapped from its generation files) keeps
	// re-applying its pipeline across reopens without the caller
	// re-passing it. On an empty-created directory the descriptor
	// becomes durable at the first compaction; until then it lives only
	// in this option. See DESIGN.md §12 for the composition rule.
	Defense *defense.Descriptor
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// view is the queryable state: the immutable base store, the memtable
// overlay, the tombstones masking base records, and the flat
// enumeration derived from the three. Open and the compaction swap
// both build one by replaying a log segment through applyRecord onto a
// fresh view over a base, so the state after a generation switch is by
// construction the state a restart would recover.
type view struct {
	base *shard.Store     // nil before the first compaction of an empty-created directory
	mem  *gallery.Gallery // never nil, carries the geometry
	// dead holds the tombstones of base records deleted since the base
	// was written; the next compaction folds them out.
	dead map[string]bool

	// The live enumeration: ids/byID cover exactly the visible records,
	// base survivors in global store order and then the memtable in
	// enrollment order. Maintained incrementally on enroll, rebuilt on
	// delete. baseIdx[i] is the store index behind enumeration index
	// i < len(baseIdx); index i past that is memtable record
	// i-len(baseIdx). baseSkip is the dead-mask the masked base scan
	// consumes (nil when every base record is visible).
	ids      []string
	byID     map[string]int
	baseIdx  []int
	baseSkip []bool
}

// newView returns the state a generation starts from: every record of
// base (nil for none) visible, an empty memtable, no tombstones.
func newView(features int, featureIndex []int, base *shard.Store) *view {
	v := &view{base: base, mem: newMemtable(features, featureIndex), dead: map[string]bool{}}
	v.rebuild()
	return v
}

// newMemtable returns an empty gallery of the given geometry
// (featureIndex nil for gallery-space fingerprints).
func newMemtable(features int, featureIndex []int) *gallery.Gallery {
	if featureIndex != nil {
		return gallery.WithFeatureIndex(featureIndex)
	}
	return gallery.New(features)
}

// Engine is a live, mutable gallery over a directory: an immutable
// sharded base store plus a write-ahead-logged memtable overlay. It
// implements gallery.Mutable (and therefore gallery.Engine), so it
// drops in wherever a read-only gallery serves today. All methods are
// safe for concurrent use: queries share a read lock and run in
// parallel, mutations serialize, and compaction runs in the background,
// sharing the read lock to copy its snapshot and taking the write lock
// only to swap generations.
type Engine struct {
	dir  string
	opts Options

	// features/fidx are the immutable geometry, fixed at construction —
	// readable without the lock (the memtable pointer itself is not:
	// deletes and compactions replace it under the write lock).
	features int
	fidx     []int

	mu     sync.RWMutex
	closed bool
	gen    int
	view

	// nprobe is the ANN cell fan-out applied to the base store (0 =
	// exact scan), carried across compactions: each fresh base is
	// re-indexed when its predecessor carried an index, and the fan-out
	// is re-applied at the swap (see ann.go).
	nprobe int

	wal        *walWriter
	walRecords int
	walBytes   int64
	tornBytes  int64

	// Replication bookkeeping (see replication.go). baseSeq is the
	// global mutation sequence number the current generation's log
	// starts after; walStart is the offset just past the log header;
	// walOff[i] is the offset just past committed record i; and walCh is
	// closed-and-replaced on every commit, generation switch, and Close,
	// waking WaitWAL waiters.
	baseSeq  int64
	walStart int64
	walOff   []int64
	walCh    chan struct{}

	compactMu     sync.Mutex  // serializes compactions
	compactKick   atomic.Bool // a background compaction is scheduled or running
	compactingNow atomic.Bool // a compaction is running right now
	wg            sync.WaitGroup

	compactions atomic.Int64
	lastCompact atomic.Int64 // microseconds
}

var _ gallery.Mutable = (*Engine)(nil)

// currentFile is the name of the generation pointer file.
const currentFile = "CURRENT"

// genName renders a generation-scoped filename: live.g0004.bpw,
// live.g0004.bpm, and (via the shard package's manifest-derived naming)
// live.g0004.s000.bpg.
func genName(gen int, ext string) string {
	return fmt.Sprintf("live.g%04d.%s", gen, ext)
}

// Create initializes an empty live gallery directory for fingerprints
// with the given geometry (featureIndex nil for gallery-space
// enrollment) and returns the open engine. The directory is created if
// missing and must not already hold a live gallery.
func Create(dir string, features int, featureIndex []int, opts Options) (*Engine, error) {
	if features <= 0 {
		return nil, fmt.Errorf("live: non-positive feature count %d", features)
	}
	if featureIndex != nil && len(featureIndex) != features {
		return nil, fmt.Errorf("%w: feature index length %d != %d features", gallery.ErrDimMismatch, len(featureIndex), features)
	}
	return createGeneration0(dir, features, featureIndex, opts, nil)
}

// CreateFromStore initializes a live gallery directory seeded with the
// records of an existing read-only store — the migration path from an
// offline-enrolled gallery or sharded store to a writable one. The
// seed records become generation 0's base (written as shard files plus
// a manifest, verbatim record moves preserving every bit) and the log
// starts empty. A partially loaded store is refused: migrating a
// degraded store would silently drop its faulted shards' records.
func CreateFromStore(dir string, src *shard.Store, opts Options) (*Engine, error) {
	if src.LoadedShards() != src.Shards() {
		return nil, fmt.Errorf("live: refusing to seed from a degraded store (%d of %d shards loaded)", src.LoadedShards(), src.Shards())
	}
	if opts.Shards <= 0 {
		opts.Shards = src.Shards()
	}
	// A defended source's pipeline carries over unless the caller gave
	// one; either way the seed snapshot passes through it, exactly like
	// a compaction's fold would.
	if opts.Defense == nil {
		opts.Defense = src.Defense()
	}
	snap, err := snapshotGallery(src.Features(), src.FeatureIndex(), func(yield func(string, []float64) error) error {
		for gi, id := range src.IDs() {
			if err := yield(id, src.Fingerprint(gi)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return createGeneration0(dir, src.Features(), src.FeatureIndex(), opts, snap)
}

// createGeneration0 claims dir and writes generation 0: the base built
// from seed (nil for none) exactly as a compaction builds one from its
// snapshot, an empty log, the sequence sidecar, and last the CURRENT
// pointer.
func createGeneration0(dir string, features int, featureIndex []int, opts Options, seed *gallery.Gallery) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, currentFile)); err == nil {
		return nil, fmt.Errorf("live: %s already holds a live gallery", dir)
	}
	e := newEngine(dir, features, featureIndex, opts, nil)
	if seed != nil {
		next, err := e.buildGeneration(compactCut{gen: 0, snap: seed})
		if err != nil {
			return nil, err
		}
		e.view = *next
	}
	w, n, err := createWAL(filepath.Join(dir, genName(0, "bpw")), e.walHeader(), nil, !e.opts.NoSync)
	if err != nil {
		return nil, err
	}
	if err = writeSeqFile(dir, 0, 0); err == nil {
		err = writeCurrent(dir, 0)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	e.wal, e.walBytes, e.walStart = w, n, n
	return e, nil
}

// Open recovers a live gallery directory: CURRENT names the generation,
// its manifest (when present) loads as the immutable base, and its
// write-ahead log replays into the memtable overlay — truncating a torn
// tail from a crash mid-append (Stats reports the recovered byte count)
// and failing hard with ErrWALCorrupt on interior corruption. A current
// generation whose sequence sidecar is missing or malformed is refused.
// Orphaned files from a compaction that crashed before its generation
// switch are swept away.
func Open(dir string, opts Options) (*Engine, error) {
	gen, err := readCurrent(dir)
	if err != nil {
		return nil, err
	}
	baseSeq, err := readSeqFile(dir, gen)
	if err != nil {
		return nil, err
	}
	var base *shard.Store
	manifestPath := filepath.Join(dir, genName(gen, "bpm"))
	if _, err := os.Stat(manifestPath); err == nil {
		base, err = shard.Open(manifestPath)
		if err != nil {
			// A live base must be fully healthy: compacting a degraded
			// base would fold the faulted shards' records out of
			// existence. Serving degraded read-only data is the
			// immutable store's job.
			return nil, fmt.Errorf("live: generation %d base: %w", gen, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	features, featureIndex := 0, []int(nil)
	if base != nil {
		features, featureIndex = base.Features(), base.FeatureIndex()
		if opts.Shards <= 0 {
			// Inherit the persisted layout: without this, reopening a
			// 4-shard live gallery and compacting would silently fold
			// the base into a single shard.
			opts.Shards = base.Shards()
		}
		if opts.Defense == nil {
			// Inherit the persisted anonymization pipeline: without
			// this, reopening a defended live gallery (or a replica's
			// bootstrapped copy of one) and compacting would silently
			// stop defending the fold.
			opts.Defense = base.Defense()
		}
	}
	walPath := filepath.Join(dir, genName(gen, "bpw"))
	if base == nil {
		// An empty-created directory: the log header is the only place
		// the geometry lives, so peek it before building the engine.
		h, err := peekWALHeader(walPath)
		if err != nil {
			return nil, err
		}
		features, featureIndex = h.features, h.featureIndex
	}
	// The base is enumerated before replay: deletes resolve against it.
	e := newEngine(dir, features, featureIndex, opts, base)
	e.gen = gen
	w, tail, err := openWAL(walPath, e.walHeader(), !e.opts.NoSync, e.applyRecord)
	if err != nil {
		return nil, err
	}
	e.wal = w
	e.adoptLog(tail)
	e.tornBytes = tail.tornBytes
	e.baseSeq = baseSeq
	e.sweepOrphans()
	return e, nil
}

// peekWALHeader reads just the geometry header of a segment.
func peekWALHeader(path string) (walHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return walHeader{}, fmt.Errorf("%w: %s", ErrWALMissing, path)
		}
		return walHeader{}, err
	}
	defer f.Close()
	h, _, err := decodeWALHeader(bufio.NewReader(f))
	if err != nil {
		return walHeader{}, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// newEngine assembles the in-memory shell shared by Create and Open:
// the geometry and a fresh view over base.
func newEngine(dir string, features int, featureIndex []int, opts Options, base *shard.Store) *Engine {
	v := newView(features, featureIndex, base)
	return &Engine{
		dir:      dir,
		opts:     opts.withDefaults(),
		features: features,
		fidx:     v.mem.FeatureIndex(),
		view:     *v,
		walCh:    make(chan struct{}),
	}
}

// walHeader returns the geometry header every log segment of this
// engine carries.
func (e *Engine) walHeader() walHeader {
	return walHeader{features: e.features, featureIndex: e.fidx}
}

// adoptLog points the replication offset table at a just-replayed
// segment. Called with the write lock held (or during Open).
func (e *Engine) adoptLog(tail replayTail) {
	e.walRecords = tail.records
	e.walBytes = tail.goodEnd
	e.walStart = tail.hdrEnd
	e.walOff = tail.ends
}

// Close waits for any in-flight background compaction and releases the
// write-ahead log. Further mutations and compactions fail with
// ErrClosed; in-flight queries finish normally.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.bump() // wake WaitWAL waiters so replication streams end promptly
	e.mu.Unlock()
	e.wg.Wait()
	return e.wal.close()
}

// ---- mutations ----

// Enroll adds one subject online: the fingerprint is normalized exactly
// like offline enrollment (projection through the feature index when
// raw-space, then z-scoring), committed to the write-ahead log with an
// fsync, and only then made visible to queries. Duplicate IDs fail with
// gallery.ErrDuplicateID; a deleted ID may be re-enrolled.
func (e *Engine) Enroll(id string, fingerprint []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, dup := e.byID[id]; dup {
		return fmt.Errorf("%w: %q", gallery.ErrDuplicateID, id)
	}
	if id == "" || len(id) > gallery.MaxIDLen {
		return fmt.Errorf("live: subject id is %d bytes (want 1..%d)", len(id), gallery.MaxIDLen)
	}
	z, err := e.mem.Normalize(fingerprint)
	if err != nil {
		return err
	}
	if err := e.commit(encodeWALRecord(walKindEnroll, id, z)); err != nil {
		return err
	}
	if err := e.applyEnroll(id, z); err != nil {
		return err
	}
	e.maybeKickCompaction()
	return nil
}

// Delete removes one enrolled subject: the tombstone is committed to
// the write-ahead log with an fsync, then the record disappears from
// queries — physically from the memtable, logically (until the next
// compaction) from the immutable base. Unknown IDs fail with
// gallery.ErrUnknownID.
func (e *Engine) Delete(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, ok := e.byID[id]; !ok {
		return fmt.Errorf("%w: %q", gallery.ErrUnknownID, id)
	}
	if err := e.commit(encodeWALRecord(walKindDelete, id, nil)); err != nil {
		return err
	}
	if err := e.applyDelete(id); err != nil {
		return err
	}
	e.maybeKickCompaction()
	return nil
}

// commit appends one framed record to the log, updating the counters,
// the replication offset table, and waking stream waiters. Called with
// the write lock held.
func (e *Engine) commit(frame []byte) error {
	if err := e.wal.append(frame); err != nil {
		return fmt.Errorf("live: committing to write-ahead log: %w", err)
	}
	e.walRecords++
	e.walBytes += int64(len(frame))
	e.walOff = append(e.walOff, e.walBytes)
	e.bump()
	return nil
}

// applyRecord makes one committed log record visible — the single
// path by which a mutation reaches the view, whether it was just
// committed, is replayed by Open, or is carried across a compaction
// swap.
func (v *view) applyRecord(rec walRecord) error {
	if rec.kind == walKindEnroll {
		return v.applyEnroll(rec.id, rec.vec)
	}
	return v.applyDelete(rec.id)
}

// applyEnroll lands a normalized vector in the memtable and grows the
// enumeration by one. Called with the write lock held (or on a view
// not yet shared).
func (v *view) applyEnroll(id string, z []float64) error {
	if _, dup := v.byID[id]; dup {
		return fmt.Errorf("%w: %q", gallery.ErrDuplicateID, id)
	}
	if err := v.mem.EnrollNormalized(id, z); err != nil {
		return err
	}
	v.byID[id] = len(v.ids)
	v.ids = append(v.ids, id)
	return nil
}

// applyDelete removes a record from the enumeration: a memtable record
// is physically rebuilt away, a base record is tombstoned until the
// next compaction folds it out. Called like applyEnroll.
func (v *view) applyDelete(id string) error {
	li, ok := v.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", gallery.ErrUnknownID, id)
	}
	if li >= len(v.baseIdx) {
		v.mem = rebuildWithout(v.mem, id)
	} else {
		v.dead[id] = true
	}
	v.rebuild()
	return nil
}

// rebuildWithout copies a memtable minus one subject, preserving
// enrollment order and every stored bit.
func rebuildWithout(g *gallery.Gallery, drop string) *gallery.Gallery {
	out := newMemtable(g.Features(), g.FeatureIndex())
	for i, id := range g.IDs() {
		if id == drop {
			continue
		}
		// Enrolling a copy of already-normalized bits cannot fail: the
		// source gallery enforced uniqueness and dimensions.
		if err := out.EnrollNormalized(id, g.Fingerprint(i)); err != nil {
			panic(fmt.Sprintf("live: rebuilding memtable: %v", err))
		}
	}
	return out
}

// rebuild recomputes the enumeration: base survivors in global order,
// then the memtable. Called like applyEnroll.
func (v *view) rebuild() {
	n := v.mem.Len()
	if v.base != nil {
		n += v.base.Len()
	}
	v.ids = make([]string, 0, n)
	v.byID = make(map[string]int, n)
	v.baseIdx, v.baseSkip = nil, nil
	if v.base != nil {
		v.baseIdx = make([]int, 0, v.base.Len())
		for gi, id := range v.base.IDs() {
			if v.dead[id] {
				if v.baseSkip == nil {
					v.baseSkip = make([]bool, v.base.Len())
				}
				v.baseSkip[gi] = true
				continue
			}
			v.baseIdx = append(v.baseIdx, gi)
			v.ids = append(v.ids, id)
		}
	}
	v.ids = append(v.ids, v.mem.IDs()...)
	for i, id := range v.ids {
		v.byID[id] = i
	}
}

// fingerprint returns the stored vector behind enumeration index i.
// Called with (at least) the read lock held.
func (v *view) fingerprint(i int) []float64 {
	if i < len(v.baseIdx) {
		return v.base.Fingerprint(v.baseIdx[i])
	}
	return v.mem.Fingerprint(i - len(v.baseIdx))
}

// ---- Engine surface: enumeration ----

// Len returns the number of visible enrolled subjects.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.ids)
}

// Features returns the fingerprint dimensionality.
func (e *Engine) Features() int { return e.features }

// FeatureIndex returns the raw-space feature indices the engine was
// built over, or nil. The caller must not mutate the result.
func (e *Engine) FeatureIndex() []int { return e.fidx }

// IDs returns the visible subject IDs in canonical (base, then
// overlay) order. Unlike the immutable engines it returns a copy: the
// live enumeration changes under mutation, and handing out the
// internal slice would race with it.
func (e *Engine) IDs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, len(e.ids))
	copy(out, e.ids)
	return out
}

// ID returns the subject ID at canonical index i, as of the call; a
// concurrent mutation may renumber indices, so pair ID with Index
// inside one logical operation only.
func (e *Engine) ID(i int) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ids[i]
}

// Index returns the canonical index of a subject ID, or -1.
func (e *Engine) Index(id string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if li, ok := e.byID[id]; ok {
		return li
	}
	return -1
}

// Defense returns the anonymization pipeline every base build passes
// its snapshot through, nil for an undefended engine. The caller must
// not mutate the result.
func (e *Engine) Defense() *defense.Descriptor { return e.opts.Defense }

// ---- stats ----

// Generation returns the current on-disk generation number.
func (e *Engine) Generation() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen
}

// Stats returns the engine's current mutation and compaction counters.
func (e *Engine) Stats() gallery.MutableStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := gallery.MutableStats{
		Generation:          e.gen,
		Seq:                 e.baseSeq + int64(e.walRecords),
		BaseSeq:             e.baseSeq,
		MemRecords:          e.mem.Len(),
		Tombstones:          len(e.dead),
		WALRecords:          e.walRecords,
		WALBytes:            e.walBytes,
		Compactions:         e.compactions.Load(),
		Compacting:          e.compactingNow.Load(),
		LastCompactDuration: time.Duration(e.lastCompact.Load()) * time.Microsecond,
		RecoveredTornBytes:  e.tornBytes,
	}
	if e.base != nil {
		st.BaseRecords = e.base.Len()
	}
	return st
}

// ---- CURRENT handling ----

// writeCurrent atomically points the directory at a generation: the
// pointer is written to a temporary file, synced, and renamed over
// CURRENT, so a crash leaves either the old or the new generation —
// never a half-written pointer.
func writeCurrent(dir string, gen int) error {
	tmp := filepath.Join(dir, currentFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%d\n", gen); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// readCurrent parses the generation pointer.
func readCurrent(dir string) (int, error) {
	b, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s", ErrNotLive, dir)
		}
		return 0, err
	}
	gen, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || gen < 0 {
		return 0, fmt.Errorf("live: corrupt CURRENT file in %s: %q", dir, strings.TrimSpace(string(b)))
	}
	return gen, nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// sweepOrphans removes generation files other than the current
// generation's — leftovers of a compaction that crashed before (its
// files are unreferenced) or completed (its predecessors are folded)
// a generation switch. Best-effort.
func (e *Engine) sweepOrphans() {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return
	}
	keep := map[string]bool{
		currentFile:           true,
		genName(e.gen, "bpw"): true,
		genName(e.gen, "bpm"): true,
	}
	prefix := fmt.Sprintf("live.g%04d.", e.gen)
	for _, ent := range entries {
		name := ent.Name()
		if keep[name] || strings.HasPrefix(name, prefix) || !strings.HasPrefix(name, "live.g") {
			continue
		}
		_ = os.Remove(filepath.Join(e.dir, name))
	}
}
