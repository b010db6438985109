package ivf

import (
	"context"
	"testing"
)

// BenchmarkBuild times index training on the serving benchmark's
// batch-ivf-100k shape: 100k records of a 100-feature, 64-centre
// z-scored mixture in four shards, default cells (317) and seed 1 —
// sampling, Lloyd's rounds over the 15,216-record sample and the full
// assignment pass.
func BenchmarkBuild(b *testing.B) {
	const features = 100
	counts := []int{25_000, 25_000, 25_000, 25_000}
	fp := mixtureShards(1, features, 64, counts)
	b.Run("100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(context.Background(), Config{Seed: 1}, features, counts, fp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
