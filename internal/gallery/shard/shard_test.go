package shard

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"brainprint/internal/gallery"
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

// exactRanked is the reference every store ranking is held to: the full
// similarity matrix of g's stored rows against probes (bit-identical to
// match.SimilarityMatrix, pinned by the gallery package), each column
// brute-force sorted under gallery.BetterByID and cut at k. Indices are
// g's enrollment indices.
func exactRanked(t testing.TB, g *gallery.Gallery, probes *linalg.Matrix, k int) ([][]gallery.Candidate, *linalg.Matrix) {
	t.Helper()
	dense, err := gallery.DenseSimilarity(context.Background(), probes, g.Len(), g.Features(), g.FeatureIndex(), g.Fingerprint, 1)
	if err != nil {
		t.Fatalf("DenseSimilarity: %v", err)
	}
	n, m := dense.Dims()
	ranked := make([][]gallery.Candidate, m)
	for j := range ranked {
		all := make([]gallery.Candidate, n)
		for i := range all {
			all[i] = gallery.Candidate{Index: i, ID: g.ID(i), Score: dense.At(i, j)}
		}
		sort.Slice(all, func(a, b int) bool { return gallery.BetterByID(all[a], all[b]) })
		ranked[j] = all[:min(k, n)]
	}
	return ranked, dense
}

// buildGallery enrolls a deterministic cohort into a single-file
// gallery.
func buildGallery(t testing.TB, seed int64, features, subjects int) *gallery.Gallery {
	t.Helper()
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), randomGroup(seed, features, subjects)); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	return g
}

func TestRouteIDStable(t *testing.T) {
	// The routing hash is part of the on-disk contract: these values
	// must never change, or existing stores stop resolving subjects.
	fixed := map[string]int{"hcp-s000": 0, "hcp-s001": 3, "hcp-s002": 6, "adhd-s017": 4}
	for id, want := range fixed {
		if got := RouteID(id, 8); got != want {
			t.Errorf("RouteID(%q, 8) = %d, want %d (routing contract broken)", id, got, want)
		}
	}
	for _, id := range subjectIDs(100) {
		for _, n := range []int{1, 2, 7} {
			if r := RouteID(id, n); r < 0 || r >= n {
				t.Fatalf("RouteID(%q, %d) = %d out of range", id, n, r)
			}
		}
	}
}

func TestFromGalleryPartitionsEverySubject(t *testing.T) {
	g := buildGallery(t, 1, 12, 50)
	s, err := FromGallery(g, 4, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", s.Shards())
	}
	if s.Len() != g.Len() {
		t.Fatalf("Len() = %d, want %d", s.Len(), g.Len())
	}
	seen := map[string]bool{}
	for _, id := range s.IDs() {
		if seen[id] {
			t.Fatalf("subject %q appears twice in the store enumeration", id)
		}
		seen[id] = true
	}
	for i, id := range g.IDs() {
		gi := s.Index(id)
		if gi < 0 {
			t.Fatalf("subject %q (source index %d) not found in store", id, i)
		}
		if s.ID(gi) != id {
			t.Fatalf("ID(Index(%q)) = %q", id, s.ID(gi))
		}
		// The fingerprint must have moved verbatim.
		si, li := s.locate(gi)
		got := s.galleries[si].Fingerprint(li)
		want := g.Fingerprint(i)
		for f := range want {
			if got[f] != want[f] {
				t.Fatalf("subject %q feature %d: %v != %v (renormalized in transit?)", id, f, got[f], want[f])
			}
		}
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	g := buildGallery(t, 2, 16, 60)
	for _, shards := range []int{1, 3, 5} {
		name := fmt.Sprintf("shards=%d", shards)
		src, err := FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("%s: FromGallery: %v", name, err)
		}
		dir := t.TempDir()
		manifest := filepath.Join(dir, "g.bpm")
		if err := src.WriteFiles(manifest); err != nil {
			t.Fatalf("%s: WriteFiles: %v", name, err)
		}
		s, err := Open(manifest)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if s.Len() != g.Len() || s.Shards() != shards {
			t.Fatalf("%s: reopened store: len=%d shards=%d", name, s.Len(), s.Shards())
		}
		// Reopened rankings must match the in-memory store's bit for bit.
		probe := randomGroup(9, 16, 1).Col(0)
		want, err := src.TopKCtx(context.Background(), probe, 7, 1)
		if err != nil {
			t.Fatalf("%s: TopK (source): %v", name, err)
		}
		got, err := s.TopKCtx(context.Background(), probe, 7, 1)
		if err != nil {
			t.Fatalf("%s: TopK (reopened): %v", name, err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%s: rank %d: reopened %+v != source %+v", name, r, got[r], want[r])
			}
		}
		for _, st := range s.Stats() {
			if !st.Loaded || st.Err != nil {
				t.Fatalf("%s: healthy store reports fault: %+v", name, st)
			}
			if st.Meta.Features != 16 {
				t.Fatalf("%s: entry features = %d", name, st.Meta.Features)
			}
		}
	}
}

func TestOpenWrapsSingleFileGallery(t *testing.T) {
	// A plain gallery file must open as a one-shard store with the same
	// enumeration — the transparent migration path.
	g := buildGallery(t, 3, 10, 20)
	path := filepath.Join(t.TempDir(), "plain.bpg")
	if err := g.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Shards() != 1 || s.Len() != g.Len() {
		t.Fatalf("wrapped store: shards=%d len=%d", s.Shards(), s.Len())
	}
	for i, id := range g.IDs() {
		if s.ID(i) != id || s.Index(id) != i {
			t.Fatalf("wrapped store enumeration diverges at %d: %q vs %q", i, s.ID(i), id)
		}
	}
}

func TestFeatureIndexSurvivesShardingAndReload(t *testing.T) {
	idx := []int{2, 5, 7, 11, 13, 17}
	g := gallery.WithFeatureIndex(idx)
	raw := randomGroup(4, 20, 30)
	if err := g.EnrollMatrix(subjectIDs(30), raw); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	src, err := FromGallery(g, 3, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	manifest := filepath.Join(t.TempDir(), "idx.bpm")
	if err := src.WriteFiles(manifest); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	s, err := Open(manifest)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := s.FeatureIndex()
	if len(got) != len(idx) {
		t.Fatalf("FeatureIndex length %d, want %d", len(got), len(idx))
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("FeatureIndex[%d] = %d, want %d", i, got[i], idx[i])
		}
	}
	// Raw-space probes must project server-side, exactly like the
	// reference scoring of the source gallery's rows.
	wantRanked, _ := exactRanked(t, g, raw.SelectCols([]int{7}), 3)
	want := wantRanked[0]
	top, err := s.TopKCtx(context.Background(), raw.Col(7), 3, 1)
	if err != nil {
		t.Fatalf("store TopK: %v", err)
	}
	for r := range want {
		if top[r].ID != want[r].ID || top[r].Score != want[r].Score {
			t.Fatalf("rank %d: store (%s, %v) != gallery (%s, %v)",
				r, top[r].ID, top[r].Score, want[r].ID, want[r].Score)
		}
	}
}

func TestFromGalleryRejectsBadInput(t *testing.T) {
	g := buildGallery(t, 6, 8, 10)
	if _, err := FromGallery(g, 0, false); err == nil {
		t.Fatal("FromGallery(shards=0) succeeded")
	}
	if _, err := FromGallery(gallery.New(8), 2, false); err == nil {
		t.Fatal("FromGallery(empty gallery) succeeded")
	}
	// The vestigial quantize argument is refused, naming the removal.
	if _, err := FromGallery(g, 2, true); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("FromGallery(quantize=true) = %v, want the removal error", err)
	}
}
