package gallery

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"brainprint/internal/linalg"
)

// eachKernel runs body once per scan-kernel body this machine has: the
// dispatch as detected and, where that is the assembly kernel, forced
// to the pure-go bodies.
func eachKernel(t *testing.T, body func(t *testing.T)) {
	t.Run(ScanKernel(), body)
	if useAVX2 {
		useAVX2 = false
		defer func() { useAVX2 = true }()
		t.Run(ScanKernel(), body)
	}
}

// TestBlockedDotsBitIdenticalToScalar pins the streaming kernels to the
// scalar reference bit for bit over every edge their tiles have: record
// counts that leave a row tail of every length (and fewer rows than one
// tile), odd feature counts (the go unroll tail) down to one and a wide
// one, range starts at any offset, and every probe batch from one to
// two full panels plus one — below the panel crossover, partial panels,
// and a panel followed by a one- or two-probe go remainder.
func TestBlockedDotsBitIdenticalToScalar(t *testing.T) {
	eachKernel(t, testBlockedDotsBitIdenticalToScalar)
}

func testBlockedDotsBitIdenticalToScalar(t *testing.T) {
	for _, features := range []int{1, 2, 3, 7, 100, 101, 512 + 173} {
		for _, subjects := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 53} {
			g := New(features)
			if err := g.EnrollMatrix(subjectIDs(subjects), randomGroup(91, features, subjects)); err != nil {
				t.Fatal(err)
			}
			bk := g.Blocked()
			if bk.Len() != subjects {
				t.Fatalf("Blocked.Len() = %d, want %d", bk.Len(), subjects)
			}
			want := make([][]float64, 17) // [probe][record]
			zps := make([][]float64, len(want))
			for p := range zps {
				zps[p] = g.fingerprint((p * 11) % subjects)
				want[p] = make([]float64, subjects)
				for i := range want[p] {
					want[p][i] = linalg.Dot(g.fingerprint(i), zps[p])
				}
			}
			for probes := 1; probes <= len(zps); probes++ {
				for _, lo := range []int{0, 1, 5, 48} {
					if lo >= subjects {
						continue
					}
					// Kernels overwrite: stale values in out must not leak.
					outs := make([][]float64, probes)
					for p := range outs {
						outs[p] = make([]float64, subjects-lo)
						for i := range outs[p] {
							outs[p][i] = 1e9
						}
					}
					bk.DotsF64Batch(lo, subjects, zps[:probes], outs)
					single := make([]float64, subjects-lo)
					bk.DotsF64(lo, subjects, zps[0], single)
					for i := lo; i < subjects; i++ {
						for p := range outs {
							if outs[p][i-lo] != want[p][i] {
								t.Fatalf("%d×%d DotsF64Batch(lo=%d, %d probes) probe %d record %d = %v, want %v",
									subjects, features, lo, probes, p, i, outs[p][i-lo], want[p][i])
							}
						}
						if single[i-lo] != want[0][i] {
							t.Fatalf("%d×%d DotsF64(lo=%d) record %d = %v, want %v",
								subjects, features, lo, i, single[i-lo], want[0][i])
						}
					}
				}
			}
		}
	}
}

// TestBlockedDotsAtBitIdenticalToScalar pins the gather kernel to the
// scalar reference bit for bit: feature counts on both sides of every
// 4-feature step boundary (and below one step), index lists from empty
// through one, partial, full and several groups, with repeats, a
// descending run and the last record, over rows whose values span
// hundreds of binary orders of magnitude so any reassociation or fused
// step changes low bits.
func TestBlockedDotsAtBitIdenticalToScalar(t *testing.T) {
	eachKernel(t, testBlockedDotsAtBitIdenticalToScalar)
}

func testBlockedDotsAtBitIdenticalToScalar(t *testing.T) {
	const records = 53
	rng := rand.New(rand.NewSource(92))
	spread := func() float64 { return rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100) }
	for _, features := range []int{1, 2, 3, 4, 5, 7, 100, 101, 512 + 173} {
		rows := make([]float64, records*features)
		for i := range rows {
			rows[i] = spread()
		}
		bk := NewBlocked(features, rows)
		zp := make([]float64, features)
		for i := range zp {
			zp[i] = spread()
		}
		for _, n := range []int{0, 1, 7, 8, 9, 16, 63, 200} {
			idx := make([]uint32, n)
			for j := range idx {
				switch {
				case j == n-1:
					idx[j] = records - 1
				case j%5 == 3:
					idx[j] = idx[j-1] // repeat
				case j%11 < 4:
					idx[j] = uint32(records - 2 - j%11) // descending run
				default:
					idx[j] = uint32(rng.Intn(records))
				}
			}
			out := make([]float64, n+1)
			out[n] = 1e9 // past the list: must stay untouched
			bk.DotsAt(idx, zp, out[:n])
			for p, i := range idx {
				want := linalg.Dot(rows[int(i)*features:(int(i)+1)*features], zp)
				if math.Float64bits(out[p]) != math.Float64bits(want) {
					t.Fatalf("%d features, %d indices: DotsAt[%d] (record %d) = %v (%#x), want %v (%#x)",
						features, n, p, i, out[p], math.Float64bits(out[p]), want, math.Float64bits(want))
				}
			}
			if out[n] != 1e9 {
				t.Fatalf("%d features, %d indices: DotsAt wrote past its list", features, n)
			}
		}
	}
}

// TestScanKernelNamed pins the name ScanKernel reports to the dispatch
// it describes, on both bodies. CI's bench-json step reads the logged
// line into the artifact's _env.
func TestScanKernelNamed(t *testing.T) {
	t.Logf("scan kernel: %s", ScanKernel())
	eachKernel(t, func(t *testing.T) {
		if k := ScanKernel(); (k != "avx2" && k != "go") || (k == "avx2") != useAVX2 {
			t.Fatalf("ScanKernel() = %q with useAVX2 = %v", k, useAVX2)
		}
	})
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
// streams and checks the selection against sorting the whole stream
// under BetterByID, across offer-order permutations.
func TestRankerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(12)
		cands := make([]Candidate, n)
		for i := range cands {
			// Coarse scores force ties so the tiebreak paths run.
			cands[i] = Candidate{Index: i, ID: subjectIDs(n)[i], Score: float64(rng.Intn(5))}
		}
		want := append([]Candidate(nil), cands...)
		sort.Slice(want, func(i, j int) bool { return BetterByID(want[i], want[j]) })
		if len(want) > k {
			want = want[:k]
		}
		r := NewRanker(k)
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

// TestRankMergeListsDeterministic checks the tournament merge against
// the reference (sort everything, cut at k) and pins independence from
// list order and grouping.
func TestRankMergeListsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ids := subjectIDs(6 * 8) // out of index order past the 26th
	for trial := 0; trial < 50; trial++ {
		nlists := 1 + rng.Intn(6)
		k := 1 + rng.Intn(10)
		var all []Candidate
		lists := make([][]Candidate, nlists)
		next := 0
		for li := range lists {
			m := rng.Intn(8)
			for j := 0; j < m; j++ {
				c := Candidate{Index: next, ID: ids[next], Score: float64(rng.Intn(4))}
				next++
				all = append(all, c)
				lists[li] = append(lists[li], c)
			}
			sort.Slice(lists[li], func(a, b int) bool { return BetterByID(lists[li][a], lists[li][b]) })
		}
		want := append([]Candidate(nil), all...)
		sort.Slice(want, func(i, j int) bool { return BetterByID(want[i], want[j]) })
		if len(want) > k {
			want = want[:k]
		}
		got := RankMergeLists(lists, k)
		perm := make([][]Candidate, nlists)
		for i, p := range rng.Perm(nlists) {
			perm[i] = lists[p]
		}
		gotPerm := RankMergeLists(perm, k)
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
