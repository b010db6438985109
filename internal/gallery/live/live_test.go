package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
)

// randomGroup builds a deterministic features×subjects matrix.
func randomGroup(seed int64, features, subjects int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(features, subjects)
	data := m.RawData()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}

// subjectIDs yields zero-padded IDs whose lexicographic order matches
// enrollment order.
func subjectIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%05d", i)
	}
	return ids
}

// createEngine creates a fresh live directory under t.TempDir with
// fsync disabled (the tests hammer the log; durability is covered by
// the dedicated WAL tests).
func createEngine(t testing.TB, features int, opts Options) *Engine {
	t.Helper()
	opts.NoSync = true
	e, err := Create(filepath.Join(t.TempDir(), "live"), features, nil, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEnrollDeleteLifecycle(t *testing.T) {
	const features = 16
	e := createEngine(t, features, Options{})
	group := randomGroup(1, features, 6)
	ids := subjectIDs(6)
	for j, id := range ids {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll(%q): %v", id, err)
		}
	}
	if e.Len() != 6 {
		t.Fatalf("Len = %d, want 6", e.Len())
	}
	if err := e.Enroll(ids[2], group.Col(2)); !errors.Is(err, gallery.ErrDuplicateID) {
		t.Fatalf("duplicate enroll: got %v, want ErrDuplicateID", err)
	}
	if err := e.Delete("nope"); !errors.Is(err, gallery.ErrUnknownID) {
		t.Fatalf("unknown delete: got %v, want ErrUnknownID", err)
	}
	if err := e.Delete(ids[3]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if e.Len() != 5 || e.Index(ids[3]) != -1 {
		t.Fatalf("after delete: Len=%d Index=%d", e.Len(), e.Index(ids[3]))
	}
	// A deleted ID is free for re-enrollment.
	if err := e.Enroll(ids[3], group.Col(3)); err != nil {
		t.Fatalf("re-enroll after delete: %v", err)
	}
	if e.Len() != 6 || e.Index(ids[3]) < 0 {
		t.Fatalf("after re-enroll: Len=%d Index=%d", e.Len(), e.Index(ids[3]))
	}
	// Enumeration invariants: ID(Index(id)) == id for every listed id.
	for _, id := range e.IDs() {
		if got := e.ID(e.Index(id)); got != id {
			t.Fatalf("ID(Index(%q)) = %q", id, got)
		}
	}
}

func TestMutationsSurviveReopen(t *testing.T) {
	const features = 12
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(2, features, 5)
	ids := subjectIDs(5)
	for j, id := range ids {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Delete(ids[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	want := snapshotRanked(t, e)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Operations after Close fail typed.
	if err := e.Enroll("late", group.Col(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enroll after close: got %v, want ErrClosed", err)
	}

	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if re.Len() != 4 {
		t.Fatalf("reopened Len = %d, want 4", re.Len())
	}
	if st := re.Stats(); st.RecoveredTornBytes != 0 || st.WALRecords != 6 {
		t.Fatalf("clean reopen stats: %+v", st)
	}
	assertSameRanked(t, want, snapshotRanked(t, re))
}

// snapshotRanked captures a deterministic full ranking of a fixed probe
// so states can be compared across reopen/compaction.
func snapshotRanked(t testing.TB, e *Engine) []gallery.Candidate {
	t.Helper()
	probe := randomGroup(99, e.Features(), 1).Col(0)
	top, err := e.TopKCtx(context.Background(), probe, e.Len(), 1)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	return top
}

func assertSameRanked(t testing.TB, want, got []gallery.Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(want), len(got))
	}
	for r := range want {
		if want[r].ID != got[r].ID || want[r].Score != got[r].Score {
			t.Fatalf("rank %d: (%q, %v) != (%q, %v)", r, got[r].ID, got[r].Score, want[r].ID, want[r].Score)
		}
	}
}

func TestCompactionFoldsOverlay(t *testing.T) {
	const features = 10
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true, Shards: 3})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(3, features, 20)
	ids := subjectIDs(20)
	for j, id := range ids {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	for _, id := range []string{ids[0], ids[7], ids[19]} {
		if err := e.Delete(id); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	want := snapshotRanked(t, e)

	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := e.Stats()
	if st.Generation != 1 || st.BaseRecords != 17 || st.MemRecords != 0 || st.Tombstones != 0 || st.WALRecords != 0 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	assertSameRanked(t, want, snapshotRanked(t, e))

	// Post-compaction mutations land in the fresh log and survive a
	// reopen of the new generation.
	extra := randomGroup(4, features, 1)
	if err := e.Enroll("zz-new", extra.Col(0)); err != nil {
		t.Fatalf("post-compaction Enroll: %v", err)
	}
	want = snapshotRanked(t, e)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open after compaction: %v", err)
	}
	defer re.Close()
	if re.Generation() != 1 || re.Len() != 18 {
		t.Fatalf("reopened: gen=%d len=%d", re.Generation(), re.Len())
	}
	assertSameRanked(t, want, snapshotRanked(t, re))

	// The superseded generation's files are gone.
	if _, err := os.Stat(filepath.Join(dir, genName(0, "bpw"))); !os.IsNotExist(err) {
		t.Fatalf("generation 0 log still present: %v", err)
	}
}

func TestCompactEverythingDeleted(t *testing.T) {
	const features = 8
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(5, features, 3)
	for j, id := range subjectIDs(3) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for _, id := range subjectIDs(3) {
		if err := e.Delete(id); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact to empty: %v", err)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d, want 0", e.Len())
	}
	if _, err := e.TopKCtx(context.Background(), group.Col(0), 1, 0); err == nil {
		t.Fatal("TopK on empty engine should error")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open baseless generation: %v", err)
	}
	defer re.Close()
	if re.Len() != 0 || re.Generation() != 2 {
		t.Fatalf("reopened empty: len=%d gen=%d", re.Len(), re.Generation())
	}
	// And the empty engine accepts fresh enrollments again.
	if err := re.Enroll("fresh", group.Col(1)); err != nil {
		t.Fatalf("enroll into emptied engine: %v", err)
	}
}

func TestAutoCompaction(t *testing.T) {
	const features = 8
	e := createEngine(t, features, Options{CompactAfter: 10})
	group := randomGroup(6, features, 25)
	for j, id := range subjectIDs(25) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	// Background compactions race the enroll loop; quiesce and check
	// that at least one fired and the engine is intact.
	e.wg.Wait()
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no background compaction fired: %+v", st)
	}
	if e.Len() != 25 {
		t.Fatalf("Len = %d, want 25", e.Len())
	}
}

func TestCreateFromStore(t *testing.T) {
	const features, subjects = 14, 30
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), randomGroup(7, features, subjects)); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	src, err := shard.FromGallery(g, 4, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	probe := randomGroup(98, features, 1).Col(0)
	want, err := src.TopKCtx(context.Background(), probe, subjects, 1)
	if err != nil {
		t.Fatalf("source TopK: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "live")
	e, err := CreateFromStore(dir, src, Options{NoSync: true})
	if err != nil {
		t.Fatalf("CreateFromStore: %v", err)
	}
	defer e.Close()
	if e.Len() != subjects || e.Stats().BaseRecords != subjects {
		t.Fatalf("seeded engine: len=%d stats=%+v", e.Len(), e.Stats())
	}
	got, err := e.TopKCtx(context.Background(), probe, subjects, 1)
	if err != nil {
		t.Fatalf("live TopK: %v", err)
	}
	assertSameRanked(t, want, got)

	// Creating on top of an existing live directory is refused.
	if _, err := CreateFromStore(dir, src, Options{NoSync: true}); err == nil {
		t.Fatal("CreateFromStore over an existing live directory should fail")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); !errors.Is(err, ErrNotLive) {
		t.Fatalf("Open on a bare directory: got %v, want ErrNotLive", err)
	}

	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, 6, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	e.Close()
	if err := os.Remove(filepath.Join(dir, genName(0, "bpw"))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrWALMissing) {
		t.Fatalf("Open without a log: got %v, want ErrWALMissing", err)
	}
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "x"), 0, nil, Options{}); err == nil {
		t.Fatal("Create with zero features should fail")
	}
	if _, err := Create(filepath.Join(t.TempDir(), "x"), 4, []int{1, 2}, Options{}); !errors.Is(err, gallery.ErrDimMismatch) {
		t.Fatal("Create with mismatched index length should fail with ErrDimMismatch")
	}
}

func TestFeatureIndexRoundTrip(t *testing.T) {
	// A live engine over a feature index accepts raw-space enrollment
	// and probes, and the geometry survives reopen and compaction.
	index := []int{9, 3, 17, 5}
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, len(index), index, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	raw := randomGroup(8, 24, 3) // 24 raw features, projected to 4
	for j, id := range subjectIDs(3) {
		if err := e.Enroll(id, raw.Col(j)); err != nil {
			t.Fatalf("raw-space Enroll: %v", err)
		}
	}
	top, err := e.TopKCtx(context.Background(), raw.Col(1), 1, 1)
	if err != nil {
		t.Fatalf("raw-space TopK: %v", err)
	}
	if top[0].ID != "s00001" {
		t.Fatalf("self-probe top-1 = %q", top[0].ID)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	e.Close()
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if got := re.FeatureIndex(); len(got) != len(index) {
		t.Fatalf("feature index lost across compaction+reopen: %v", got)
	}
	top, err = re.TopKCtx(context.Background(), raw.Col(1), 1, 1)
	if err != nil {
		t.Fatalf("reopened raw-space TopK: %v", err)
	}
	if top[0].ID != "s00001" {
		t.Fatalf("reopened self-probe top-1 = %q", top[0].ID)
	}
}

// TestReopenInheritsShardCount pins that Open without an explicit
// shard option keeps the persisted base layout instead of silently
// folding a multi-shard base into one shard at the next compaction.
func TestReopenInheritsShardCount(t *testing.T) {
	const features = 8
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true, Shards: 4})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(62, features, 6)
	for j, id := range subjectIDs(6) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	e.Close()

	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if err := re.Compact(); err != nil {
		t.Fatalf("Compact after reopen: %v", err)
	}
	e2, err := shard.Open(filepath.Join(dir, genName(re.Generation(), "bpm")))
	if err != nil {
		t.Fatalf("opening compacted base: %v", err)
	}
	if e2.Shards() != 4 {
		t.Fatalf("reopened compaction wrote %d shards, want 4", e2.Shards())
	}
}
