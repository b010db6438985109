package gallery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"brainprint/internal/linalg"
)

// The per-stripe oracle: the exact sweep as it ran before ScanUnits
// packed its probe panels once per query. Every 256-row stripe re-packed
// each panel of the batch, the kernel prefetched nothing past the
// stripe, and the reject loop consulted the skip mask and built each
// candidate before comparing its score with the threshold.

// dotsF64BatchPerStripe is that DotsF64Batch body.
func (bk *Blocked) dotsF64BatchPerStripe(lo, hi int, zps [][]float64, outs [][]float64) {
	n := 0 // probes the panels cover
	if useAVX2 && hi-lo >= ScanLanes {
		if n = len(zps); n%panelLanes < panelMinProbes {
			n -= n % panelLanes
		}
	}
	if n > 0 {
		mid := hi - (hi-lo)%ScanLanes
		f := bk.features
		panel := make([]float64, panelLanes*f)
		rows := bk.rows[lo*f : mid*f]
		for p := 0; p < n; p += panelLanes {
			m := min(panelLanes, n-p)
			clear(panel)
			var dst [panelLanes]*float64
			for l := 0; l < m; l++ {
				for j, v := range zps[p+l][:f] {
					panel[j*panelLanes+l] = v
				}
				dst[l] = &outs[p+l][:mid-lo][0]
			}
			dotsPanelAVX2(&rows[0], (mid-lo)/ScanLanes, f, &panel[0], &dst, m, mid-lo)
		}
		bk.dotsGo(mid, hi, zps[:n], outs[:n], mid-lo)
	}
	bk.dotsGo(lo, hi, zps[n:], outs[n:], 0)
}

// scanUnitsPerStripe is that ScanUnits.
func scanUnitsPerStripe(ctx context.Context, units []Unit, zps [][]float64, k, parallelism int, skip []bool) ([][]Candidate, error) {
	return SelectRuns(ctx, len(units), len(zps), k, parallelism, func(lo, hi int, rankers []Ranker) error {
		outs := make([][]float64, len(zps))
		for _, u := range units[lo:hi] {
			g := u.G
			bk := g.Blocked()
			inv := 1 / float64(g.features)
			for p := range outs {
				outs[p] = make([]float64, scanStripe)
			}
			for slo := u.Lo; slo < u.Hi; slo += scanStripe {
				shi := min(slo+scanStripe, u.Hi)
				bk.dotsF64BatchPerStripe(slo, shi, zps, outs)
				for p := range rankers {
					r := &rankers[p]
					threshold := func() (Candidate, bool) {
						if !r.Full() {
							return Candidate{}, false
						}
						return r.h[0], true
					}
					thr, full := threshold()
					for i := slo; i < shi; i++ {
						if skip != nil && skip[u.Base+i] {
							continue
						}
						sc := outs[p][i-slo] * inv
						if full && sc < thr.Score {
							continue
						}
						c := Candidate{Index: u.Base + i, ID: g.ids[i], Score: sc}
						if full && !BetterByID(c, thr) {
							continue
						}
						r.Offer(c)
						thr, full = threshold()
					}
				}
			}
		}
		return nil
	})
}

// TestScanUnitsMatchesPerStripeOracle holds the sweep to the per-stripe
// oracle (reflect.DeepEqual) and to a brute-force BetterByID sort of
// every unmasked record, on both kernel bodies, at shard counts
// {1, 4, 7} × parallelism {1, 0, 3}, with and without a skip mask. The
// shards are galleries of unequal sizes whose units carry their first
// global index as Base, as a store's do; a fifth of the records are
// copies of one vector under IDs out of enrollment order, so exact ties
// straddle stripe, unit and shard boundaries. The probe counts cover
// the go bodies alone (1, 2), a partial panel (3), one full panel plus
// a go-body probe (9), a full and a partial panel (11), two full
// panels (16) and two plus a go-body probe (17).
func TestScanUnitsMatchesPerStripeOracle(t *testing.T) {
	eachKernel(t, testScanUnitsMatchesPerStripeOracle)
}

func testScanUnitsMatchesPerStripeOracle(t *testing.T) {
	const features, subjects, k = 200, 2800, 7
	rng := rand.New(rand.NewSource(143))
	data := randomGroup(144, features, subjects)
	twin := data.Col(0)
	ids := make([]string, subjects)
	for j := range ids {
		ids[j] = fmt.Sprintf("r%05d", j*1543%subjects)
		if j%5 == 0 {
			data.SetCol(j, twin)
		}
	}
	whole := New(features)
	if err := whole.EnrollMatrix(ids, data); err != nil {
		t.Fatal(err)
	}
	zps := make([][]float64, 17)
	for p := range zps {
		zps[p] = append([]float64(nil), whole.fingerprint((p*389)%subjects)...)
		if p%3 == 1 {
			for j := range zps[p] {
				zps[p][j] += 0.4 * rng.NormFloat64()
			}
		}
	}
	skip := make([]bool, subjects)
	for i := range skip {
		skip[i] = i%7 == 3 || i%scanStripe == 0 || i%scanStripe == scanStripe-1
	}

	// The reference scores every record of every unit with linalg.Dot:
	// a shard re-normalizes what it enrolls, so its rows are its own.
	inv := 1 / float64(features)
	bruteForce := func(units []Unit, probes int, skip []bool) [][]Candidate {
		out := make([][]Candidate, probes)
		for p := range out {
			var all []Candidate
			for _, u := range units {
				for i := u.Lo; i < u.Hi; i++ {
					if skip == nil || !skip[u.Base+i] {
						all = append(all, Candidate{Index: u.Base + i, ID: u.G.ids[i], Score: linalg.Dot(u.G.fingerprint(i), zps[p]) * inv})
					}
				}
			}
			sort.Slice(all, func(a, b int) bool { return BetterByID(all[a], all[b]) })
			out[p] = all[:k]
		}
		return out
	}

	for _, shards := range []int{1, 4, 7} {
		// Cut the cohort into shards of unequal, unaligned sizes.
		var units []Unit
		for s, lo := 0, 0; s < shards; s++ {
			hi := subjects * (s + 1) * (s + 2) / (shards * (shards + 1))
			g := New(features)
			for i := lo; i < hi; i++ {
				if err := g.Enroll(ids[i], whole.fingerprint(i)); err != nil {
					t.Fatal(err)
				}
			}
			units = g.AppendUnits(units, lo)
			lo = hi
		}
		if shards == 1 && len(units) < 3 {
			t.Fatalf("one shard spans %d units, want ≥ 3", len(units))
		}
		for _, probes := range []int{1, 2, 3, 9, 11, 16, 17} {
			for _, mask := range [][]bool{nil, skip} {
				want := bruteForce(units, probes, mask)
				for _, par := range []int{1, 0, 3} {
					name := fmt.Sprintf("shards=%d probes=%d masked=%v par=%d", shards, probes, mask != nil, par)
					got, err := ScanUnits(context.Background(), units, zps[:probes], k, par, mask)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					oracle, err := scanUnitsPerStripe(context.Background(), units, zps[:probes], k, par, mask)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if !reflect.DeepEqual(got, oracle) {
						t.Fatalf("%s: sweep differs from the per-stripe oracle:\n got %v\nwant %v", name, got, oracle)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: sweep differs from the brute-force sort:\n got %v\nwant %v", name, got, want)
					}
				}
			}
		}
	}
}
