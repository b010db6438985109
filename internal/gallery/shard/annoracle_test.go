package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
)

// oracleQueryAllANN is the per-probe, posting-order IVF sweep the
// cell-major path replaced, kept as its oracle: each probe ranks its
// cells and runs its own selection over the shards, scoring the probed
// posting lists in rank order with linalg.Dot8 and a linalg.Dot tail.
func oracleQueryAllANN(s *Store, zcols [][]float64, k int, skip []bool) ([][]gallery.Candidate, error) {
	out := make([][]gallery.Candidate, len(zcols))
	inv := 1 / float64(s.features)
	for j, zp := range zcols {
		cells := s.ann.RankCells(zp, s.nprobe)
		lists, err := gallery.SelectRuns(context.Background(), len(s.galleries), 1, k, 1,
			func(lo, hi int, rankers []gallery.Ranker) error {
				for si := lo; si < hi; si++ {
					oracleScanShard(s, si, cells, zp, inv, &rankers[0], skip)
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		out[j] = lists[0]
	}
	return out, nil
}

// oracleScanShard offers one shard's probed, unmasked records to r in
// posting order, eight scores per linalg.Dot8 call.
func oracleScanShard(s *Store, si int, cells []int, zp []float64, inv float64, r *gallery.Ranker, skip []bool) {
	g, base := s.galleries[si], s.bases[si]
	var idx [8]int
	var dots [8]float64
	n := 0
	flush := func() {
		for t := 0; t < n; t++ {
			r.Offer(gallery.Candidate{Index: base + idx[t], ID: g.ID(idx[t]), Score: dots[t] * inv})
		}
		n = 0
	}
	for _, c := range cells {
		for _, li := range s.ann.Postings(si, c) {
			if i := int(li); skip == nil || !skip[base+i] {
				idx[n] = i
				n++
			}
			if n < len(idx) {
				continue
			}
			fp := func(t int) []float64 { return g.Fingerprint(idx[t]) }
			dots[0], dots[1], dots[2], dots[3], dots[4], dots[5], dots[6], dots[7] = linalg.Dot8(
				fp(0), fp(1), fp(2), fp(3), fp(4), fp(5), fp(6), fp(7), zp)
			flush()
		}
	}
	for t := 0; t < n; t++ {
		dots[t] = linalg.Dot(g.Fingerprint(idx[t]), zp)
	}
	flush()
}

// TestIVFBatchMatchesPerProbeOracle holds the cell-major IVF path to
// the per-probe oracle on both kernel bodies: identical lists
// (reflect.DeepEqual — IDs, indices, score bits, order) at every shard
// count, fan-out from one cell to all of them, parallelism, batch size
// (one probe, a pair, one and just over two gather groups) and with and
// without a skip mask. One record in seven duplicates another under a
// different ID, so equal scores across cells and shards are ordered
// by the ID tiebreak, not by where the scan found them.
func TestIVFBatchMatchesPerProbeOracle(t *testing.T) {
	EachKernel(t, testIVFBatchMatchesPerProbeOracle)
}

func testIVFBatchMatchesPerProbeOracle(t *testing.T) {
	const features, subjects, k, cells = 20, 1200, 10, 32
	known := clusteredCohort(181, features, subjects, 24, 0.3)
	for j := 6; j < subjects; j += 7 {
		known.SetCol(j, known.Col((j*31)%subjects))
	}
	anon := noisyProbes(known, 182)
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	zcols, err := gallery.PrepProbes(anon, features, nil, 1)
	if err != nil {
		t.Fatalf("PrepProbes: %v", err)
	}
	zcols = zcols[:17]
	mask := make([]bool, subjects)
	for i := range mask {
		mask[i] = i%6 == 0 || i%13 == 1
	}
	for _, shards := range []int{1, 4, 7} {
		s, err := FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("FromGallery(%d): %v", shards, err)
		}
		buildANN(t, s, cells, 5)
		for _, nprobe := range []int{1, 4, 16, s.ANNIndex().Cells()} {
			if err := s.SetANNProbe(nprobe); err != nil {
				t.Fatalf("SetANNProbe(%d): %v", nprobe, err)
			}
			for _, batch := range []int{1, 2, 16, 17} {
				for _, skip := range [][]bool{nil, mask} {
					want, err := oracleQueryAllANN(s, zcols[:batch], k, skip)
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					for _, par := range []int{1, 0, 3} {
						name := fmt.Sprintf("shards=%d nprobe=%d batch=%d masked=%v par=%d", shards, nprobe, batch, skip != nil, par)
						got, err := s.QueryAllZMasked(context.Background(), zcols[:batch], k, par, skip)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: cell-major IVF answer differs from the per-probe oracle\n got %v\nwant %v", name, got, want)
						}
					}
				}
			}
		}
	}
}
