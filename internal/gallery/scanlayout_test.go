package gallery

import (
	"math/rand"
	"sort"
	"testing"

	"brainprint/internal/linalg"
)

// TestBlockedDotsBitIdenticalToScalar pins the streaming kernels to the
// scalar reference bit for bit over every edge the 4-row × 2-probe tile
// has: record counts that leave a row tail of every length, an odd
// feature count (the unroll tail) and a wide one, range starts at any
// offset, and probe batches that end on a pair and on an odd probe.
func TestBlockedDotsBitIdenticalToScalar(t *testing.T) {
	for _, tc := range []struct{ features, subjects int }{
		{100, 1}, {100, 2}, {100, 3}, {100, 53}, {7, 53}, {512 + 173, 53},
	} {
		g := New(tc.features)
		if err := g.EnrollMatrix(subjectIDs(tc.subjects), randomGroup(91, tc.features, tc.subjects)); err != nil {
			t.Fatal(err)
		}
		bk := g.Blocked()
		if bk.Len() != tc.subjects {
			t.Fatalf("Blocked.Len() = %d, want %d", bk.Len(), tc.subjects)
		}
		for _, probes := range []int{1, 2, 5} {
			zps := make([][]float64, probes)
			for p := range zps {
				zps[p] = g.fingerprint((p * 11) % tc.subjects)
			}
			for _, lo := range []int{0, 1, 5, 48} {
				if lo >= tc.subjects {
					continue
				}
				// Kernels overwrite: stale values in out must not leak.
				outs := make([][]float64, probes)
				for p := range outs {
					outs[p] = make([]float64, tc.subjects-lo)
					for i := range outs[p] {
						outs[p][i] = 1e9
					}
				}
				bk.DotsF64Batch(lo, tc.subjects, zps, outs)
				single := make([]float64, tc.subjects-lo)
				bk.DotsF64(lo, tc.subjects, zps[0], single)
				for i := lo; i < tc.subjects; i++ {
					for p := range zps {
						if want := linalg.Dot(g.fingerprint(i), zps[p]); outs[p][i-lo] != want {
							t.Fatalf("%d×%d DotsF64Batch(lo=%d, %d probes) probe %d record %d = %v, want %v",
								tc.subjects, tc.features, lo, probes, p, i, outs[p][i-lo], want)
						}
					}
					if want := linalg.Dot(g.fingerprint(i), zps[0]); single[i-lo] != want {
						t.Fatalf("%d×%d DotsF64(lo=%d) record %d = %v, want %v",
							tc.subjects, tc.features, lo, i, single[i-lo], want)
					}
				}
			}
		}
	}
}

// TestBlockedAliasesGalleryRecords pins the one-image rule: the view's
// backing array is the gallery's own, a view taken after an Enroll sees
// the new record, and a view taken before an Enroll that reallocates
// the records still scores its old rows correctly.
func TestBlockedAliasesGalleryRecords(t *testing.T) {
	g := New(8)
	if err := g.Enroll("a", []float64{1, 2, 3, 4, 5, 6, 7, 9}); err != nil {
		t.Fatal(err)
	}
	first := g.Blocked()
	if first.Len() != 1 || &first.rows[0] != &g.vecs[0] {
		t.Fatalf("view of %d records does not alias the gallery's backing array", first.Len())
	}
	a := append([]float64(nil), g.fingerprint(0)...)
	// cap(vecs) is 8 after one append, so the second Enroll reallocates.
	if err := g.Enroll("b", []float64{2, 1, 4, 3, 6, 5, 9, 7}); err != nil {
		t.Fatal(err)
	}
	second := g.Blocked()
	if second.Len() != 2 || &second.rows[0] != &g.vecs[0] {
		t.Fatalf("view after enroll: %d records, aliasing %v", second.Len(), &second.rows[0] == &g.vecs[0])
	}
	if &first.rows[0] == &g.vecs[0] {
		t.Fatal("second Enroll did not reallocate; the stale-view case is not exercised")
	}
	out := make([]float64, 2)
	second.DotsF64(0, 2, g.fingerprint(1), out)
	if want := linalg.Dot(g.fingerprint(1), g.fingerprint(1)); out[1] != want {
		t.Fatalf("view after enroll scores %v, want %v", out[1], want)
	}
	first.DotsF64(0, 1, a, out)
	if want := linalg.Dot(a, a); first.Len() != 1 || out[0] != want {
		t.Fatalf("stale view: %d records, score %v, want 1 record scoring %v", first.Len(), out[0], want)
	}
}

// TestRankerMatchesReference feeds the bounded heap random candidate
// streams and checks the selection against sorting the whole stream,
// under both tiebreak orders and across offer-order permutations.
func TestRankerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	byIndex := BetterByIndex
	byID := func(a, b Candidate) bool {
		return a.Score > b.Score || (a.Score == b.Score && a.ID < b.ID)
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(12)
		cands := make([]Candidate, n)
		for i := range cands {
			// Coarse scores force ties so the tiebreak paths run.
			cands[i] = Candidate{Index: i, ID: subjectIDs(n)[i], Score: float64(rng.Intn(5))}
		}
		for _, outranks := range []func(a, b Candidate) bool{byIndex, byID} {
			want := append([]Candidate(nil), cands...)
			sort.Slice(want, func(i, j int) bool { return outranks(want[i], want[j]) })
			if len(want) > k {
				want = want[:k]
			}
			r := NewRanker(k, outranks)
			for _, i := range rng.Perm(n) {
				r.Offer(cands[i])
			}
			got := r.Ranked()
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d candidates, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d rank %d: got %+v, want %+v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRankMergeListsDeterministic checks the tournament merge against
// the reference (sort everything, cut at k) and pins independence from
// list order and grouping.
func TestRankMergeListsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		nlists := 1 + rng.Intn(6)
		k := 1 + rng.Intn(10)
		var all []Candidate
		lists := make([][]Candidate, nlists)
		next := 0
		for li := range lists {
			m := rng.Intn(8)
			for j := 0; j < m; j++ {
				c := Candidate{Index: next, Score: float64(rng.Intn(4))}
				next++
				all = append(all, c)
				lists[li] = append(lists[li], c)
			}
			sort.Slice(lists[li], func(a, b int) bool { return BetterByIndex(lists[li][a], lists[li][b]) })
		}
		want := append([]Candidate(nil), all...)
		sort.Slice(want, func(i, j int) bool { return BetterByIndex(want[i], want[j]) })
		if len(want) > k {
			want = want[:k]
		}
		got := RankMergeLists(lists, k, BetterByIndex)
		perm := make([][]Candidate, nlists)
		for i, p := range rng.Perm(nlists) {
			perm[i] = lists[p]
		}
		gotPerm := RankMergeLists(perm, k, BetterByIndex)
		if len(got) != len(want) || len(gotPerm) != len(want) {
			t.Fatalf("trial %d: lengths %d/%d, want %d", trial, len(got), len(gotPerm), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
			if gotPerm[i] != want[i] {
				t.Fatalf("trial %d rank %d (permuted lists): got %+v, want %+v", trial, i, gotPerm[i], want[i])
			}
		}
	}
}
