package shard

import (
	"context"
	"fmt"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/ivf"
	"brainprint/internal/linalg"
	"brainprint/internal/match"
)

// BenchmarkShardTopK pins the four ways to attack a probe batch against
// galleries of 1k, 10k, 100k, 500k, and 1M synthetic subjects:
//
//	dense      match.SimilarityMatrix over the raw groups (recomputes
//	           normalization every run — what the experiment drivers do)
//	single     the gallery wrapped as a one-shard store (the exact-scan
//	           driver over one shard)
//	sharded    8-shard store, exact streaming scan (the same driver over
//	           eight)
//	ivf        8-shard store, IVF coarse index at the default nprobe,
//	           exact scan within the probed cells
//
// All four return identical top-1 subjects; sharded additionally
// returns bit-identical scores to single (the equivalence tests pin
// this), and ivf returns exact scores for whatever it
// returns (the recall gate pins its candidate quality). The JSON
// benchmark artifact records the trajectory; the CI sharding-overhead
// gate requires sharded to stay within 5 % of single at every cohort
// size it covers. The 1M regime lives in BenchmarkShardTopK1M so
// filtered runs of this benchmark don't pay its setup cost. Each
// cohort is built on first use by a lane that runs (the IVF index only
// by the ivf lane), so a filtered run pays only for the lanes it
// selects.
func BenchmarkShardTopK(b *testing.B) {
	const features, probes, k = 100, 16, 5
	for _, subjects := range []int{1_000, 10_000, 100_000, 500_000} {
		c := &topKCohort{subjects: subjects, features: features, probes: probes}
		query := func(b *testing.B, s *Store) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ranked, err := s.QueryAllCtx(context.Background(), c.anon, k, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(ranked) != probes {
					b.Fatal("short result")
				}
			}
		}

		scale := fmt.Sprintf("%dk", subjects/1000)
		if subjects <= 10_000 { // dense is O(n·m) memory; skip at 100k
			b.Run("dense/"+scale, func(b *testing.B) {
				c.groups()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim, err := match.SimilarityMatrix(c.known, c.anon)
					if err != nil {
						b.Fatal(err)
					}
					if pred := match.Predict(sim); len(pred) != probes {
						b.Fatal("short result")
					}
				}
			})
		}
		b.Run("single/"+scale, func(b *testing.B) {
			query(b, Wrap(c.gallery(b)))
		})
		b.Run("sharded/"+scale, func(b *testing.B) {
			s := c.sharded(b)
			if err := s.SetANNProbe(0); err != nil {
				b.Fatal(err)
			}
			query(b, s)
		})
		b.Run("ivf/"+scale, func(b *testing.B) {
			s := c.sharded(b)
			if !c.trained {
				if err := s.BuildANN(context.Background(), 0, 1, 0); err != nil {
					b.Fatalf("BuildANN: %v", err)
				}
				c.trained = true
			}
			if err := s.SetANNProbe(ivf.DefaultNProbe); err != nil {
				b.Fatal(err)
			}
			query(b, s)
			b.StopTimer()
			if err := s.SetANNProbe(0); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// topKCohort holds one BenchmarkShardTopK cohort, each piece built on
// first use: the raw groups, the enrolled gallery and its 8-shard
// store.
type topKCohort struct {
	subjects, features, probes int

	known, anon *linalg.Matrix
	g           *gallery.Gallery
	s           *Store
	trained     bool // s carries its IVF index
}

func (c *topKCohort) groups() {
	if c.known == nil {
		c.known = randomGroup(int64(c.subjects), c.features, c.subjects)
		c.anon = randomGroup(int64(c.subjects)+1, c.features, c.probes)
	}
}

func (c *topKCohort) gallery(b *testing.B) *gallery.Gallery {
	if c.g == nil {
		c.groups()
		ids := make([]string, c.subjects)
		for i := range ids {
			ids[i] = fmt.Sprintf("s%06d", i)
		}
		g := gallery.New(c.features)
		if err := g.EnrollMatrix(ids, c.known); err != nil {
			b.Fatalf("EnrollMatrix: %v", err)
		}
		c.g = g
	}
	return c.g
}

func (c *topKCohort) sharded(b *testing.B) *Store {
	if c.s == nil {
		s, err := FromGallery(c.gallery(b), 8, false)
		if err != nil {
			b.Fatalf("FromGallery: %v", err)
		}
		c.s = s
	}
	return c.s
}

// BenchmarkShardTopK1M is the million-subject regime — the tentpole
// scale where the exact scan's linear cost becomes the bottleneck and
// the IVF coarse index must win by ≥4× (the CI ivf speedup gate holds
// that line). The ratio divides the exact lane by the IVF lane, so a
// faster exact sweep lowers it: the 2-core Xeon read 2.8–3.0× just
// before the exact sweep prefetched and 2.3–2.5× after (DESIGN.md §8). Two
// contenders run here: the exact 8-shard streaming scan
// as the reference and the IVF scan at the default nprobe (16 of 512
// trained cells, ~3% of records actually scored). A separate
// function so filtered runs of BenchmarkShardTopK skip its set-up: 1M
// enrollment plus index training, the build alone ~5 s on the 2-core
// Xeon (512 cells).
func BenchmarkShardTopK1M(b *testing.B) {
	const features, probes, k, subjects = 100, 16, 5, 1_000_000
	known := randomGroup(subjects, features, subjects)
	anon := randomGroup(subjects+1, features, probes)
	ids := make([]string, subjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%07d", i)
	}
	g := gallery.New(features)
	if err := g.EnrollMatrix(ids, known); err != nil {
		b.Fatalf("EnrollMatrix: %v", err)
	}
	s, err := FromGallery(g, 8, false)
	if err != nil {
		b.Fatalf("FromGallery: %v", err)
	}
	if err := s.BuildANN(context.Background(), 0, 1, 0); err != nil {
		b.Fatalf("BuildANN: %v", err)
	}
	run := func(name string, setup func() error) {
		b.Run(name+"/1M", func(b *testing.B) {
			if err := setup(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ranked, err := s.QueryAllCtx(context.Background(), anon, k, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(ranked) != probes {
					b.Fatal("short result")
				}
			}
		})
	}
	run("sharded", func() error { return s.SetANNProbe(0) })
	run("ivf", func() error { return s.SetANNProbe(ivf.DefaultNProbe) })
}

// BenchmarkShardOpen measures cold-start deserialization of a sharded
// store — manifest decode, per-shard gallery load, and whole-file CRC
// verification.
func BenchmarkShardOpen(b *testing.B) {
	const features, subjects = 100, 10_000
	ids := make([]string, subjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%06d", i)
	}
	g := gallery.New(features)
	if err := g.EnrollMatrix(ids, randomGroup(7, features, subjects)); err != nil {
		b.Fatalf("EnrollMatrix: %v", err)
	}
	s, err := FromGallery(g, 8, false)
	if err != nil {
		b.Fatalf("FromGallery: %v", err)
	}
	manifest := b.TempDir() + "/g.bpm"
	if err := s.WriteFiles(manifest); err != nil {
		b.Fatalf("WriteFiles: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(manifest)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != subjects {
			b.Fatal("short store")
		}
	}
}
