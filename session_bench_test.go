package brainprint_test

// Throughput of the Attacker session's batch identification — the
// serving hot path of `brainprint serve`. A synthetic gallery avoids
// cohort-generation cost so the benchmark isolates the query engine:
// enroll once, identify a whole release per iteration, serial vs
// parallel.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"brainprint"
)

// benchAttacker enrolls a synthetic 1000-subject gallery (100
// gallery-space features, matching the paper's reduced subspace) and
// returns the session plus a 200-probe batch. Fingerprints are random:
// the benchmark isolates the serving sweep, not feature selection.
func benchAttacker(b *testing.B, parallelism int) (*brainprint.Attacker, *brainprint.Matrix) {
	b.Helper()
	const features, subjects, probes = 100, 1000, 200
	rng := rand.New(rand.NewSource(42))
	known := brainprint.NewMatrix(features, subjects)
	raw := known.RawData()
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	g := brainprint.NewGallery(features)
	ids := make([]string, subjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%04d", i)
	}
	if err := g.EnrollMatrix(ids, known); err != nil {
		b.Fatal(err)
	}
	probe := brainprint.NewMatrix(features, probes)
	for j := 0; j < probes; j++ {
		col := known.Col(j)
		for i := range col {
			col[i] += 0.3 * rng.NormFloat64()
		}
		probe.SetCol(j, col)
	}
	store, err := brainprint.NewGalleryStore(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	atk, err := brainprint.NewAttacker(store,
		brainprint.WithTopK(5),
		brainprint.WithParallelism(parallelism))
	if err != nil {
		b.Fatal(err)
	}
	return atk, probe
}

func BenchmarkAttackerIdentifyBatch(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			atk, probes := benchAttacker(b, mode.parallelism)
			ctx := context.Background()
			b.ResetTimer()
			var top1 int
			for i := 0; i < b.N; i++ {
				res, err := atk.IdentifyBatch(ctx, probes)
				if err != nil {
					b.Fatal(err)
				}
				top1 = 0
				for j, ranked := range res.Ranked {
					if ranked[0].ID == fmt.Sprintf("s%04d", j) {
						top1++
					}
				}
			}
			_, n := probes.Dims()
			b.ReportMetric(100*float64(top1)/float64(n), "top1%")
		})
	}
}
