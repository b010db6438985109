package gallery

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"brainprint/internal/match"
)

// BenchmarkGalleryTopK compares the two ways to attack a batch of
// probes against a 1000-subject database: the enrollment-once gallery
// answering ranked top-k queries, and the dense path that re-normalizes
// the known group and materializes the full similarity matrix on every
// run (what the experiment drivers do today). The gallery side measures
// steady-state serving — the gallery is enrolled once outside the
// timer, exactly the persistence the file format buys.
func BenchmarkGalleryTopK(b *testing.B) {
	const features, subjects, probes, k = 100, 1000, 64, 10
	known := randomGroup(31, features, subjects)
	anon := randomGroup(32, features, probes)
	ids := make([]string, subjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%04d", i)
	}
	g := New(features)
	if err := g.EnrollMatrix(ids, known); err != nil {
		b.Fatalf("EnrollMatrix: %v", err)
	}

	b.Run("topk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ranked, err := queryAll(context.Background(), g, anon, k, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(ranked) != probes {
				b.Fatal("short result")
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := match.SimilarityMatrix(known, anon)
			if err != nil {
				b.Fatal(err)
			}
			if pred := match.Predict(sim); len(pred) != probes {
				b.Fatal("short result")
			}
		}
	})
}

// BenchmarkGalleryLoad measures deserialization of a 1000-subject
// gallery — the cost a query process pays once at startup instead of
// regenerating fingerprints from raw series.
func BenchmarkGalleryLoad(b *testing.B) {
	const features, subjects = 100, 1000
	known := randomGroup(33, features, subjects)
	ids := make([]string, subjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%04d", i)
	}
	g := New(features)
	if err := g.EnrollMatrix(ids, known); err != nil {
		b.Fatalf("EnrollMatrix: %v", err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		b.Fatalf("Save: %v", err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
