package live

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
)

// benchEngine builds a live engine with `base` records compacted into
// the immutable base and `overlay` records in the memtable.
func benchEngine(b *testing.B, features, base, overlay int) *Engine {
	b.Helper()
	e, err := Create(filepath.Join(b.TempDir(), "live"), features, nil, Options{NoSync: true, Shards: 4})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	b.Cleanup(func() { e.Close() })
	group := randomGroup(51, features, base+overlay)
	for j := 0; j < base; j++ {
		if err := e.Enroll(fmt.Sprintf("base-%06d", j), group.Col(j)); err != nil {
			b.Fatalf("Enroll: %v", err)
		}
	}
	if base > 0 {
		if err := e.Compact(); err != nil {
			b.Fatalf("Compact: %v", err)
		}
	}
	for j := 0; j < overlay; j++ {
		if err := e.Enroll(fmt.Sprintf("over-%06d", j), group.Col(base+j)); err != nil {
			b.Fatalf("Enroll: %v", err)
		}
	}
	return e
}

// BenchmarkLiveTopK compares the live engine's merged sweep against the
// read-only sharded store on the same cohort: the price of mutability
// on the query path (one RLock plus the enumeration indirection).
func BenchmarkLiveTopK(b *testing.B) {
	const features, subjects, k = 512, 2000, 5
	probe := randomGroup(52, features, 1).Col(0)

	b.Run("store", func(b *testing.B) {
		g := gallery.New(features)
		group := randomGroup(51, features, subjects)
		for j := 0; j < subjects; j++ {
			if err := g.Enroll(fmt.Sprintf("base-%06d", j), group.Col(j)); err != nil {
				b.Fatalf("Enroll: %v", err)
			}
		}
		s, err := shard.FromGallery(g, 4, false)
		if err != nil {
			b.Fatalf("FromGallery: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.TopKCtx(context.Background(), probe, k, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live-compacted", func(b *testing.B) {
		e := benchEngine(b, features, subjects, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.TopKCtx(context.Background(), probe, k, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live-overlay", func(b *testing.B) {
		e := benchEngine(b, features, subjects-200, 200)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.TopKCtx(context.Background(), probe, k, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLiveEnroll measures online enrollment throughput into the
// write-ahead-logged memtable (fsync disabled, so this is the codec +
// memtable cost; with fsync the device dominates).
func BenchmarkLiveEnroll(b *testing.B) {
	const features = 512
	e := benchEngine(b, features, 0, 0)
	vecs := randomGroup(53, features, 1)
	col := vecs.Col(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Enroll(fmt.Sprintf("s-%09d", i), col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveCompact measures folding a 2000-record overlay into a
// fresh 4-shard base (file writes included).
func BenchmarkLiveCompact(b *testing.B) {
	const features, subjects = 256, 2000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, features, 0, subjects)
		b.StartTimer()
		if err := e.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
