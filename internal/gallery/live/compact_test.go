package live

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
)

// compactionWindow drives one engine through a scripted compaction
// window, step by step: the tests below call cutSnapshot,
// buildGeneration and swapGeneration themselves, with mutate in between,
// so every interleaving Compact can meet is reached deterministically.
type compactionWindow struct {
	t       *testing.T
	dir     string
	e       *Engine
	group   *linalg.Matrix
	ids     []string
	visible map[string]int // id → the group column it was enrolled from
}

const windowFeatures = 19

// newCompactionWindow builds generation 1 with 30 base records, a
// 12-record overlay and one base tombstone — the state the cut captures.
func newCompactionWindow(t *testing.T) *compactionWindow {
	t.Helper()
	w := &compactionWindow{
		t:       t,
		dir:     filepath.Join(t.TempDir(), "live"),
		group:   randomGroup(83, windowFeatures, 48),
		ids:     subjectIDs(48),
		visible: map[string]int{},
	}
	var err error
	w.e, err = Create(w.dir, windowFeatures, nil, Options{NoSync: true, Shards: 2})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { w.e.Close() })
	for j := 0; j < 30; j++ {
		w.enroll(w.ids[j], j)
	}
	if err := w.e.Compact(); err != nil { // 0..29 into the base
		t.Fatalf("Compact: %v", err)
	}
	for j := 30; j < 42; j++ {
		w.enroll(w.ids[j], j)
	}
	w.del(w.ids[3])
	return w
}

func (w *compactionWindow) enroll(id string, col int) {
	w.t.Helper()
	if err := w.e.Enroll(id, w.group.Col(col)); err != nil {
		w.t.Fatalf("Enroll(%q): %v", id, err)
	}
	w.visible[id] = col
}

func (w *compactionWindow) del(id string) {
	w.t.Helper()
	if err := w.e.Delete(id); err != nil {
		w.t.Fatalf("Delete(%q): %v", id, err)
	}
	delete(w.visible, id)
}

// mutate is the window script: every kind of mutation whose replay onto
// the new base differs from how it applied to the old state.
func (w *compactionWindow) mutate() {
	w.t.Helper()
	w.del(w.ids[35])          // an overlay record the snapshot folded …
	w.enroll(w.ids[35], 43)   // … re-enrolled with different bits
	w.del(w.ids[7])           // a base record
	w.enroll(w.ids[42], 42)   // a fresh record
	w.enroll(w.ids[44], 44)   // a record that lives …
	w.del(w.ids[44])          // … and dies inside the window
	w.enroll("a-twin-38", 38) // same bits as folded ids[38]; wins the tie by ID
}

// assertMatchesCold requires the engine to answer like a cold store of
// the visible records at parallelism 1, 0 and 3.
func (w *compactionWindow) assertMatchesCold(phase string, e *Engine) {
	w.t.Helper()
	cold := gallery.New(windowFeatures)
	for _, id := range append(append([]string(nil), w.ids...), "a-twin-38") {
		if col, ok := w.visible[id]; ok {
			if err := cold.Enroll(id, w.group.Col(col)); err != nil {
				w.t.Fatalf("cold Enroll: %v", err)
			}
		}
	}
	coldStore, err := shard.FromGallery(cold, 2, false)
	if err != nil {
		w.t.Fatalf("cold FromGallery: %v", err)
	}
	if e.Len() != coldStore.Len() {
		w.t.Fatalf("%s: record sets diverged: live %d vs cold %d", phase, e.Len(), coldStore.Len())
	}
	assertEnginesAgreeAt(w.t, phase, coldStore, e, noisyProbes(w.group, 84), 7, 1, 0, 3)
	twin, err := e.TopKCtx(context.Background(), w.group.Col(38), 2, 1)
	if err != nil || twin[0].ID != "a-twin-38" || twin[1].ID != w.ids[38] || twin[0].Score != twin[1].Score {
		w.t.Fatalf("%s: twins not tied in ID order: %+v %v", phase, twin, err)
	}
}

// durableState is what a Close+Open must reproduce.
type durableState struct {
	IDs                                   []string
	Generation, BaseRecords, MemRecords   int
	Tombstones, WALRecords                int
	Seq, BaseSeq, WALBytes, ReplicationLo int64
}

func durableStateOf(e *Engine) durableState {
	st, rs := e.Stats(), e.ReplicationState()
	return durableState{e.IDs(), st.Generation, st.BaseRecords, st.MemRecords,
		st.Tombstones, st.WALRecords, st.Seq, st.BaseSeq, st.WALBytes, rs.BaseSeq}
}

// reopen closes the window's engine and recovers the directory.
func (w *compactionWindow) reopen() *Engine {
	w.t.Helper()
	if err := w.e.Close(); err != nil {
		w.t.Fatalf("Close: %v", err)
	}
	re, err := Open(w.dir, Options{NoSync: true})
	if err != nil {
		w.t.Fatalf("Open: %v", err)
	}
	w.t.Cleanup(func() { re.Close() })
	return re
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCompactionSwapIsReplayOfLogTail pins the swap: mutations landing
// between the cut and the swap are served like any others, the new
// generation's log is its header plus the old log's bytes past the cut,
// and the state the swap leaves in memory is the state Open recovers
// from those files.
func TestCompactionSwapIsReplayOfLogTail(t *testing.T) {
	w := newCompactionWindow(t)
	c, err := w.e.cutSnapshot()
	if err != nil {
		t.Fatalf("cutSnapshot: %v", err)
	}
	if c.records != 13 || c.snap.Len() != 41 {
		t.Fatalf("cut at %d records with %d visible, want 13 and 41", c.records, c.snap.Len())
	}
	w.mutate()
	w.assertMatchesCold("window", w.e)
	oldTail := mustReadFile(t, filepath.Join(w.dir, genName(1, "bpw")))[c.bytes:]

	next, err := w.e.buildGeneration(c)
	if err != nil {
		t.Fatalf("buildGeneration: %v", err)
	}
	w.assertMatchesCold("built", w.e)
	if err := w.e.swapGeneration(c, next); err != nil {
		t.Fatalf("swapGeneration: %v", err)
	}
	w.assertMatchesCold("swapped", w.e)

	want := append(encodeWALHeader(w.e.walHeader()), oldTail...)
	if got := mustReadFile(t, filepath.Join(w.dir, genName(2, "bpw"))); !bytes.Equal(got, want) {
		t.Fatalf("generation 2 log is %d bytes, want the header plus the %d bytes past the cut", len(got), len(oldTail))
	}
	swapped := durableStateOf(w.e)
	if swapped.Generation != 2 || swapped.BaseSeq != 30+13 || swapped.WALRecords != 7 || swapped.Seq != 50 ||
		swapped.BaseRecords != 41 || swapped.MemRecords != 3 || swapped.Tombstones != 2 {
		t.Fatalf("post-swap state: %+v", swapped)
	}
	re := w.reopen()
	if reopened := durableStateOf(re); !reflect.DeepEqual(reopened, swapped) {
		t.Fatalf("Open recovered a different state than the swap left:\n  swap: %+v\n  open: %+v", swapped, reopened)
	}
	w.assertMatchesCold("reopened", re)
}

// TestAbandonedCompactionLeavesSteadyState pins that a compaction has
// nothing to unwind: abandoned after the build, it leaves the engine
// exactly where a twin that never compacted stands; a restart sweeps
// the orphans; and a later compaction is clean.
func TestAbandonedCompactionLeavesSteadyState(t *testing.T) {
	abandonCompaction(t, false)
}

// abandonCompaction runs the window script around a compaction that
// stops after the build — or, with atFlip, fails at the very last
// durable step, with the tail-bearing log and the sidecar of
// generation 2 already written — and checks the engine against a twin
// that never compacted, then a restart, then a later compaction.
func abandonCompaction(t *testing.T, atFlip bool) {
	twin := newCompactionWindow(t)
	twin.mutate()
	want := durableStateOf(twin.e)

	w := newCompactionWindow(t)
	c, err := w.e.cutSnapshot()
	if err != nil {
		t.Fatalf("cutSnapshot: %v", err)
	}
	w.mutate()
	next, err := w.e.buildGeneration(c)
	if err != nil {
		t.Fatalf("buildGeneration: %v", err)
	}
	orphans := []string{genName(2, "bpm")}
	if atFlip {
		// A directory squatting on the pointer's temporary name fails
		// writeCurrent.
		squat := filepath.Join(w.dir, currentFile+".tmp")
		if err := os.Mkdir(squat, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := w.e.swapGeneration(c, next); err == nil {
			t.Fatal("swapGeneration succeeded without a CURRENT pointer")
		}
		if err := os.Remove(squat); err != nil {
			t.Fatal(err)
		}
		orphans = append(orphans, genName(2, "bpw"), seqName(2))
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(w.dir, name)); err != nil {
			t.Fatalf("expected generation-2 file before the restart: %v", err)
		}
	}
	if got := durableStateOf(w.e); !reflect.DeepEqual(got, want) {
		t.Fatalf("abandoned compaction left a trace:\n  twin: %+v\n  got:  %+v", want, got)
	}
	w.assertMatchesCold("abandoned", w.e)
	if err := w.e.Enroll("post-abandon", w.group.Col(45)); err != nil {
		t.Fatalf("Enroll after the abandoned compaction: %v", err)
	}
	w.del("post-abandon")

	re := w.reopen()
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(w.dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s not swept at Open: %v", name, err)
		}
	}
	if re.Generation() != 1 {
		t.Fatalf("recovered generation %d, want 1", re.Generation())
	}
	w.assertMatchesCold("recovered", re)
	if err := re.Compact(); err != nil {
		t.Fatalf("Compact after recovery: %v", err)
	}
	w.assertMatchesCold("compacted", re)
	w.e = re
	w.assertMatchesCold("compacted+reopened", w.reopen())
}
