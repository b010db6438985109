package gallery

import (
	"math/rand"
	"sort"
	"testing"

	"brainprint/internal/linalg"
)

// TestBlockedDotsBitIdenticalToScalar pins the blocked kernels to the
// scalar reference on an awkward shape: a record count that is not a
// multiple of the lane width (exercising zero padding) and a feature
// count wider than one tile (exercising the tile-major layout and the
// partial-sum carry across tiles).
func TestBlockedDotsBitIdenticalToScalar(t *testing.T) {
	const features, subjects, probes = scanTileF + 173, 53, 5
	known := randomGroup(91, features, subjects)
	g := New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatal(err)
	}
	bk := g.Blocked()
	if bk.Len() != subjects {
		t.Fatalf("Blocked.Len() = %d, want %d", bk.Len(), subjects)
	}
	zps := make([][]float64, probes)
	for p := range zps {
		zps[p] = g.fingerprint((p * 11) % subjects)
	}

	// Single-probe kernel, over a sub-range starting mid-layout.
	for _, lo := range []int{0, 4, 48} {
		out := make([]float64, alignLanes(subjects-lo))
		bk.DotsF64(lo, subjects, zps[0], out)
		for i := lo; i < subjects; i++ {
			want := linalg.Dot(g.fingerprint(i), zps[0])
			if out[i-lo] != want {
				t.Fatalf("DotsF64(lo=%d) record %d = %v, want %v", lo, i, out[i-lo], want)
			}
		}
	}

	// Batched kernel: every probe bit-identical to the scalar reference
	// (and hence to the single-probe kernel).
	outs := make([][]float64, probes)
	for p := range outs {
		outs[p] = make([]float64, alignLanes(subjects))
	}
	bk.DotsF64Batch(0, subjects, zps, outs)
	for p := range zps {
		for i := 0; i < subjects; i++ {
			want := linalg.Dot(g.fingerprint(i), zps[p])
			if outs[p][i] != want {
				t.Fatalf("DotsF64Batch probe %d record %d = %v, want %v", p, i, outs[p][i], want)
			}
		}
	}
}

// TestBlockedCacheInvalidation checks that the cached layout tracks
// enrollment: a gallery that grows after a Blocked call rebuilds the
// layout instead of scanning a stale record count.
func TestBlockedCacheInvalidation(t *testing.T) {
	g := New(8)
	if err := g.Enroll("a", []float64{1, 2, 3, 4, 5, 6, 7, 9}); err != nil {
		t.Fatal(err)
	}
	first := g.Blocked()
	if first.Len() != 1 {
		t.Fatalf("Blocked.Len() = %d, want 1", first.Len())
	}
	if err := g.Enroll("b", []float64{2, 1, 4, 3, 6, 5, 9, 7}); err != nil {
		t.Fatal(err)
	}
	second := g.Blocked()
	if second.Len() != 2 {
		t.Fatalf("Blocked.Len() after enroll = %d, want 2", second.Len())
	}
	out := make([]float64, alignLanes(2))
	second.DotsF64(0, 2, g.fingerprint(1), out)
	if want := linalg.Dot(g.fingerprint(1), g.fingerprint(1)); out[1] != want {
		t.Fatalf("rebuilt layout scores %v, want %v", out[1], want)
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
