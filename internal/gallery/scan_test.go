package gallery

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// TestSelectRunsIndependentOfRunCount drives the selection driver with
// a synthetic unit body — each unit offers a few candidates with coarse
// (tie-heavy) scores to every probe — and requires the same ranking as
// sorting all candidates under the ID tiebreak, whether the units form
// one run or many.
func TestSelectRunsIndependentOfRunCount(t *testing.T) {
	const units, perUnit, probes, k = 23, 7, 3, 10
	rng := rand.New(rand.NewSource(17))
	scores := make([][]float64, probes) // [probe][candidate]
	for p := range scores {
		scores[p] = make([]float64, units*perUnit)
		for i := range scores[p] {
			scores[p][i] = float64(rng.Intn(6))
		}
	}
	// IDs out of index order, so the tiebreak is not the scan order.
	ids := subjectIDs(units * perUnit)
	scan := func(lo, hi int, rankers []Ranker) error {
		for i := lo * perUnit; i < hi*perUnit; i++ {
			for p := range rankers {
				rankers[p].Offer(Candidate{Index: i, ID: ids[i], Score: scores[p][i]})
			}
		}
		return nil
	}
	for _, par := range []int{1, 2, 3, 8, 64} {
		got, err := SelectRuns(context.Background(), units, probes, k, par, scan)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for p := range scores {
			want := make([]Candidate, len(scores[p]))
			for i, sc := range scores[p] {
				want[i] = Candidate{Index: i, ID: ids[i], Score: sc}
			}
			sort.Slice(want, func(i, j int) bool { return BetterByID(want[i], want[j]) })
			for r := 0; r < k; r++ {
				if got[p][r] != want[r] {
					t.Fatalf("par=%d probe %d rank %d: %+v, want %+v", par, p, r, got[p][r], want[r])
				}
			}
		}
	}

	boom := errors.New("boom")
	if _, err := SelectRuns(context.Background(), units, probes, k, 3,
		func(lo, hi int, _ []Ranker) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failing run: err = %v, want boom", err)
	}
	// Zero units (a live engine with an empty overlay): no run, one empty
	// list per probe.
	for _, par := range []int{1, 3} {
		got, err := SelectRuns(context.Background(), 0, probes, k, par,
			func(lo, hi int, _ []Ranker) error { return boom })
		if err != nil || len(got) != probes {
			t.Fatalf("zero units par=%d: %d lists, err %v; want %d empty lists", par, len(got), err, probes)
		}
		for p := range got {
			if len(got[p]) != 0 {
				t.Fatalf("zero units par=%d probe %d: %+v, want empty", par, p, got[p])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectRuns(ctx, units, probes, k, 3, scan); err != context.Canceled {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestScanScratchAllocations pins the sweep's scratch: a run allocates
// its dot buffer once and nothing per stripe — the batch's packed probe
// panels are pooled and packed once per sweep, the per-probe slice
// headers of a batch of up to inlineProbes sit in the run's frame, and
// the rankings sort in place — on either kernel body.
func TestScanScratchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	eachKernel(t, func(t *testing.T) {
		const features, subjects, k = 100, 6000, 5
		g := New(features)
		if err := g.EnrollMatrix(subjectIDs(subjects), randomGroup(5, features, subjects)); err != nil {
			t.Fatal(err)
		}
		units := g.AppendUnits(nil, 0)
		if len(units) < 2 {
			t.Fatalf("%d units; the run must carry its scratch across several", len(units))
		}
		zps := make([][]float64, inlineProbes+1)
		outs := make([][]float64, len(zps))
		for p := range zps {
			zps[p] = g.fingerprint(p * 7)
			outs[p] = make([]float64, subjects)
		}
		for _, tc := range []struct{ probes, max int }{{1, 9}, {inlineProbes, 24}, {inlineProbes + 1, 26}} {
			got := testing.AllocsPerRun(20, func() {
				if _, err := ScanUnits(context.Background(), units, zps[:tc.probes], k, 1, nil); err != nil {
					t.Fatal(err)
				}
			})
			if got > float64(tc.max) {
				t.Errorf("ScanUnits, %d probes, one run: %v allocations, want at most %d", tc.probes, got, tc.max)
			}
		}
		bk := g.Blocked()
		if got := testing.AllocsPerRun(20, func() { bk.DotsF64Batch(3, subjects, zps, outs) }); got != 0 {
			t.Errorf("DotsF64Batch called directly: %v allocations per call, want 0", got)
		}
	})
}
