package brainprint_test

// The runnable companion to docs/API.md: every snippet in the API
// reference is an Example* function here, so the documentation compiles
// on every CI run (and godoc/pkgsite render the examples next to the
// symbols they document). Keep the two files in sync — a snippet that
// drifts from its Example fails the build, which is the point.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"brainprint"
)

// ExampleNewGallery enrolls three fingerprints and runs one ranked
// query — the enroll-once, query-many core of the attack. The gallery
// stores; a store built over it answers queries.
func ExampleNewGallery() {
	g := brainprint.NewGallery(4)
	_ = g.Enroll("alice", []float64{5, 1, 1, 1})
	_ = g.Enroll("bob", []float64{1, 5, 1, 1})
	_ = g.Enroll("carol", []float64{1, 1, 5, 1})
	store, err := brainprint.NewGalleryStore(g, 1)
	if err != nil {
		panic(err)
	}

	// A noisy observation of bob re-identifies bob.
	top, err := store.TopKCtx(context.Background(), []float64{1.2, 4.8, 0.9, 1.1}, 2, 0)
	if err != nil {
		panic(err)
	}
	for rank, c := range top {
		fmt.Printf("%d. %s %.2f\n", rank+1, c.ID, c.Score)
	}
	// Output:
	// 1. bob 1.00
	// 2. alice -0.29
}

// ExampleNewAttacker builds an identification session over an enrolled
// gallery, served as a one-shard store, and answers a probe under a
// context.
func ExampleNewAttacker() {
	g := brainprint.NewGallery(4)
	_ = g.Enroll("alice", []float64{5, 1, 1, 1})
	_ = g.Enroll("bob", []float64{1, 5, 1, 1})
	store, err := brainprint.NewGalleryStore(g, 1)
	if err != nil {
		panic(err)
	}

	atk, err := brainprint.NewAttacker(store, brainprint.WithTopK(1), brainprint.WithParallelism(1))
	if err != nil {
		panic(err)
	}
	top, err := atk.Identify(context.Background(), []float64{4.7, 1.3, 0.8, 1.2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("identified: %s\n", top[0].ID)
	// Output: identified: alice
}

// ExampleAttacker_IdentifyBatch attacks a whole anonymized release at
// once; the probes are the columns of a features×probes matrix.
func ExampleAttacker_IdentifyBatch() {
	g := brainprint.NewGallery(4)
	_ = g.Enroll("alice", []float64{5, 1, 1, 1})
	_ = g.Enroll("bob", []float64{1, 5, 1, 1})
	store, _ := brainprint.NewGalleryStore(g, 1)

	atk, _ := brainprint.NewAttacker(store)
	probes := brainprint.NewMatrix(4, 2)
	probes.SetCol(0, []float64{1.1, 5.2, 0.9, 1.0}) // bob-like
	probes.SetCol(1, []float64{4.9, 0.8, 1.1, 1.2}) // alice-like
	batch, err := atk.IdentifyBatch(context.Background(), probes)
	if err != nil {
		panic(err)
	}
	for j, ranked := range batch.Ranked {
		fmt.Printf("probe %d -> %s\n", j, ranked[0].ID)
	}
	// Output:
	// probe 0 -> bob
	// probe 1 -> alice
}

// ExampleOpenGalleryStore shards a gallery across four files, persists
// it, and reopens it for querying. A plain single-file gallery path
// opens through the same call.
func ExampleOpenGalleryStore() {
	g := brainprint.NewGallery(4)
	_ = g.Enroll("alice", []float64{5, 1, 1, 1})
	_ = g.Enroll("bob", []float64{1, 5, 1, 1})
	_ = g.Enroll("carol", []float64{1, 1, 5, 1})
	_ = g.Enroll("dave", []float64{1, 1, 1, 5})

	dir, _ := os.MkdirTemp("", "store")
	defer os.RemoveAll(dir)
	store, err := brainprint.NewGalleryStore(g, 4)
	if err != nil {
		panic(err)
	}
	if err := store.WriteFiles(filepath.Join(dir, "cohort.bpm")); err != nil {
		panic(err)
	}

	reopened, err := brainprint.OpenGalleryStore(filepath.Join(dir, "cohort.bpm"))
	if err != nil {
		panic(err)
	}
	top, err := reopened.TopKCtx(context.Background(), []float64{0.9, 1.1, 5.3, 0.8}, 1, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shards: %d, identified: %s\n", reopened.Shards(), top[0].ID)
	// Output: shards: 4, identified: carol
}

// ExampleOpenGalleryStore_partial shows the degraded-open contract: a
// missing shard yields a typed partial error while the surviving
// shards keep answering.
func ExampleOpenGalleryStore_partial() {
	g := brainprint.NewGallery(4)
	_ = g.Enroll("alice", []float64{5, 1, 1, 1})
	_ = g.Enroll("bob", []float64{1, 5, 1, 1})
	dir, _ := os.MkdirTemp("", "store")
	defer os.RemoveAll(dir)
	store, _ := brainprint.NewGalleryStore(g, 2)
	_ = store.WriteFiles(filepath.Join(dir, "cohort.bpm"))
	// Lose the shard holding bob.
	_ = os.Remove(filepath.Join(dir, fmt.Sprintf("cohort.s%03d.bpg", brainprint.RouteGalleryID("bob", 2))))

	degraded, err := brainprint.OpenGalleryStore(filepath.Join(dir, "cohort.bpm"))
	fmt.Println("partial:", errors.Is(err, brainprint.ErrGalleryPartial))
	top, _ := degraded.TopKCtx(context.Background(), []float64{4.7, 1.3, 0.8, 1.2}, 1, 0)
	fmt.Println("still identified:", top[0].ID)
	// Output:
	// partial: true
	// still identified: alice
}

// ExampleExperiments lists the experiment registry — the single source
// of the CLI's experiment names and dispatch.
func ExampleExperiments() {
	fmt.Println(strings.Join(brainprint.ExperimentNames(), " "))
	spec, _ := brainprint.LookupExperiment("defense")
	fmt.Printf("defense needs HCP: %v\n", spec.NeedsHCP)
	// Output:
	// fig1 fig2 fig5 fig6 table1 fig7 fig8 fig9 table2 defense gallery-defense
	// defense needs HCP: true
}

// ExampleNewAttacker_errNoGallery shows the typed-error contract of a
// session built without a gallery engine: there is nothing to serve,
// so NewAttacker refuses it.
func ExampleNewAttacker_errNoGallery() {
	_, err := brainprint.NewAttacker(nil)
	fmt.Println(errors.Is(err, brainprint.ErrNoGallery))
	// Output: true
}

// ExampleCreateLiveGallery drives the live mutable gallery end to end:
// create, enroll online, crash-recover by reopening, delete, compact.
func ExampleCreateLiveGallery() {
	dir, _ := os.MkdirTemp("", "live")
	defer os.RemoveAll(dir)

	e, err := brainprint.CreateLiveGallery(filepath.Join(dir, "cohort.live"), 4,
		brainprint.LiveGalleryOptions{})
	if err != nil {
		panic(err)
	}
	_ = e.Enroll("alice", []float64{5, 1, 1, 1})
	_ = e.Enroll("bob", []float64{1, 5, 1, 1})
	_ = e.Close() // or kill -9: every committed mutation is in the log

	reopened, err := brainprint.OpenLiveGallery(filepath.Join(dir, "cohort.live"),
		brainprint.LiveGalleryOptions{})
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	top, err := reopened.TopKCtx(context.Background(), []float64{1.2, 4.8, 0.9, 1.1}, 1, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered and identified:", top[0].ID)

	_ = reopened.Delete("bob")
	if err := reopened.Compact(); err != nil {
		panic(err)
	}
	st := reopened.Stats()
	fmt.Printf("generation %d: %d base records, %d log records\n",
		st.Generation, st.BaseRecords, st.WALRecords)
	// Output:
	// recovered and identified: bob
	// generation 1: 1 base records, 0 log records
}
