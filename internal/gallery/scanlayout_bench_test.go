package gallery

import (
	"context"
	"testing"

	"brainprint/internal/linalg"
)

// BenchmarkBlockedKernels pins the raw throughput of the blocked scan
// kernels against the scalar linalg.Dot sweep they replaced, on a
// cohort of 4,096 × 100 (3.3 MB of rows: past a 2 MB L2, inside L3) —
// the kernels' in-cache rate, the numbers future kernel PRs
// should diff.
// f64batch (4 probes) is half a panel where the assembly kernel runs,
// f64batch16 two full ones: the serving tier's default batch.
func BenchmarkBlockedKernels(b *testing.B) {
	const features, subjects, probes = 100, 4096, 16
	known := randomGroup(77, features, subjects)
	g := New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		b.Fatal(err)
	}
	bk := g.Blocked()
	zps := make([][]float64, probes)
	for p := range zps {
		zps[p] = g.fingerprint((p * 37) % subjects)
	}
	flops := int64(2 * features * subjects)

	b.Run("scalar-dot", func(b *testing.B) {
		b.SetBytes(flops)
		var sink float64
		for i := 0; i < b.N; i++ {
			for s := 0; s < subjects; s++ {
				sink += linalg.Dot(g.fingerprint(s), zps[0])
			}
		}
		_ = sink
	})
	b.Run("f64x1", func(b *testing.B) {
		b.SetBytes(flops)
		out := make([]float64, subjects)
		for i := 0; i < b.N; i++ {
			clear(out)
			bk.DotsF64(0, subjects, zps[0], out)
		}
	})
	for _, lane := range []struct {
		name   string
		probes int
	}{{"f64batch", 4}, {"f64batch16", 16}} {
		b.Run(lane.name, func(b *testing.B) {
			b.SetBytes(int64(lane.probes) * flops)
			outs := make([][]float64, lane.probes)
			for p := range outs {
				outs[p] = make([]float64, subjects)
			}
			for i := 0; i < b.N; i++ {
				for p := range outs {
					clear(outs[p])
				}
				bk.DotsF64Batch(0, subjects, zps[:lane.probes], outs)
			}
		})
	}
}

// BenchmarkScanUnits is the exact sweep as every engine runs it — units,
// runs, the batch kernel stripe by stripe, the reject loop and the
// merge — over a 100k × 100 gallery (80 MB of rows, far past the
// caches) with a 16-probe batch and k 5, serially and on every core.
// MB/s reads as MFLOP/s, the unit of BenchmarkBlockedKernels, so the
// gap to its f64batch16 lane is what streaming the rows from memory
// costs.
func BenchmarkScanUnits(b *testing.B) {
	const features, subjects, probes, k = 100, 100_000, 16, 5
	g := New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), randomGroup(78, features, subjects)); err != nil {
		b.Fatal(err)
	}
	units := g.AppendUnits(nil, 0)
	zps := make([][]float64, probes)
	for p := range zps {
		zps[p] = g.fingerprint((p * 6151) % subjects)
	}
	for _, lane := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(lane.name, func(b *testing.B) {
			b.SetBytes(int64(2 * features * subjects * probes))
			for i := 0; i < b.N; i++ {
				if _, err := ScanUnits(context.Background(), units, zps, k, lane.par, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
