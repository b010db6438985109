package gallery

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

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

func subjectIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "s" + string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	return ids
}

func TestEnrollAndSelfQuery(t *testing.T) {
	const features, subjects = 31, 12
	group := randomGroup(1, features, subjects)
	g := New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), group); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	if g.Len() != subjects || g.Features() != features {
		t.Fatalf("gallery is %d×%d, want %d×%d", g.Len(), g.Features(), subjects, features)
	}
	// A subject's own fingerprint must be its top-1 with correlation 1.
	for j := 0; j < subjects; j++ {
		top, err := topK(context.Background(), g, group.Col(j), 3, 0)
		if err != nil {
			t.Fatalf("topK: %v", err)
		}
		if len(top) != 3 {
			t.Fatalf("topK returned %d candidates, want 3", len(top))
		}
		if top[0].Index != j || top[0].ID != g.ID(j) {
			t.Errorf("probe %d: top candidate is %d (%s)", j, top[0].Index, top[0].ID)
		}
		if top[0].Score < 0.999999 {
			t.Errorf("probe %d: self-correlation %g", j, top[0].Score)
		}
		if BetterByID(top[1], top[0]) || BetterByID(top[2], top[1]) {
			t.Errorf("probe %d: candidates out of rank order: %+v", j, top)
		}
	}
}

func TestTopKClampAndErrors(t *testing.T) {
	group := randomGroup(2, 9, 4)
	g := New(9)
	if _, err := topK(context.Background(), g, group.Col(0), 1, 0); err == nil {
		t.Error("expected error querying an empty gallery")
	}
	if err := g.EnrollMatrix(subjectIDs(4), group); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	if _, err := topK(context.Background(), g, group.Col(0), 0, 0); err == nil {
		t.Error("expected error for k=0")
	}
	top, err := topK(context.Background(), g, group.Col(0), 99, 0)
	if err != nil {
		t.Fatalf("topK with oversized k: %v", err)
	}
	if len(top) != 4 {
		t.Errorf("oversized k returned %d candidates, want the whole gallery (4)", len(top))
	}
	if err := g.Enroll(g.ID(0), group.Col(1)); err == nil {
		t.Error("expected duplicate-ID error")
	}
	if err := g.Enroll("fresh", make([]float64, 5)); err == nil {
		t.Error("expected dimension-mismatch error")
	}
}

func TestFeatureIndexProjection(t *testing.T) {
	const raw, subjects = 40, 8
	group := randomGroup(3, raw, subjects)
	index := []int{3, 7, 11, 19, 23, 31, 37}
	g := WithFeatureIndex(index)
	if g.Features() != len(index) {
		t.Fatalf("Features() = %d want %d", g.Features(), len(index))
	}
	// Enroll raw columns; the gallery must behave exactly like one
	// enrolled from pre-selected rows.
	if err := g.EnrollMatrix(subjectIDs(subjects), group); err != nil {
		t.Fatalf("EnrollMatrix raw: %v", err)
	}
	pre := New(len(index))
	if err := pre.EnrollMatrix(subjectIDs(subjects), group.SelectRows(index)); err != nil {
		t.Fatalf("EnrollMatrix pre-selected: %v", err)
	}
	probes := randomGroup(4, raw, 3)
	got, err := queryAll(context.Background(), g, probes, subjects, 0)
	if err != nil {
		t.Fatalf("queryAll raw probes: %v", err)
	}
	want, err := queryAll(context.Background(), pre, probes.SelectRows(index), subjects, 0)
	if err != nil {
		t.Fatalf("queryAll selected probes: %v", err)
	}
	for j := range got {
		for r := range got[j] {
			if got[j][r] != want[j][r] {
				t.Fatalf("probe %d rank %d: %+v != %+v", j, r, got[j][r], want[j][r])
			}
		}
	}
}

func TestEnrollFileAppendsWithoutRewrite(t *testing.T) {
	const features = 17
	group := randomGroup(5, features, 10)
	ids := subjectIDs(10)
	path := filepath.Join(t.TempDir(), "gallery.bpg")

	g := New(features)
	if err := g.EnrollMatrix(ids[:6], group.SelectCols([]int{0, 1, 2, 3, 4, 5})); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	if err := g.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	appended, err := EnrollFile(path, ids[6:], group.SelectCols([]int{6, 7, 8, 9}))
	if err != nil {
		t.Fatalf("EnrollFile: %v", err)
	}
	if appended.Len() != 10 {
		t.Fatalf("after append Len() = %d want 10", appended.Len())
	}
	// Reload and compare against a gallery enrolled in one shot.
	back, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	all := New(features)
	if err := all.EnrollMatrix(ids, group); err != nil {
		t.Fatalf("EnrollMatrix all: %v", err)
	}
	if back.Len() != all.Len() {
		t.Fatalf("reloaded Len() = %d want %d", back.Len(), all.Len())
	}
	for i := 0; i < all.Len(); i++ {
		if back.ID(i) != all.ID(i) {
			t.Fatalf("subject %d id %q want %q", i, back.ID(i), all.ID(i))
		}
		bi, ai := back.fingerprint(i), all.fingerprint(i)
		for k := range ai {
			if bi[k] != ai[k] {
				t.Fatalf("subject %d feature %d: %g != %g (append changed stored bits)", i, k, bi[k], ai[k])
			}
		}
	}
	// A failed batch must not touch the file: duplicate and oversized
	// IDs both error out with the file still loading at 10 subjects.
	if _, err := EnrollFile(path, ids[:1], group.SelectCols([]int{0})); err == nil {
		t.Error("expected duplicate-ID error on append")
	}
	huge := string(make([]byte, maxIDLen+1))
	if _, err := EnrollFile(path, []string{"ok-id", huge}, group.SelectCols([]int{0, 1})); err == nil {
		t.Error("expected oversized-ID error on append")
	}
	after, err := OpenFile(path)
	if err != nil {
		t.Fatalf("gallery unreadable after failed appends: %v", err)
	}
	if after.Len() != 10 {
		t.Errorf("failed appends changed the file: %d subjects want 10", after.Len())
	}
}

func TestIndexLookup(t *testing.T) {
	g := New(3)
	if err := g.Enroll("alpha", []float64{1, 2, 3}); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if g.Index("alpha") != 0 {
		t.Errorf("Index(alpha) = %d", g.Index("alpha"))
	}
	if g.Index("ghost") != -1 {
		t.Errorf("Index(ghost) = %d want -1", g.Index("ghost"))
	}
}

// TestGalleryIsNotAnEngine keeps one engine type: a Gallery is storage,
// queried through a store over it, so it has no ranking order of its own.
func TestGalleryIsNotAnEngine(t *testing.T) {
	if _, ok := any(New(4)).(Engine); ok {
		t.Fatal("*Gallery implements Engine again; query it through shard.Wrap instead")
	}
}
