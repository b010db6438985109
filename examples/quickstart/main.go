// Quickstart: the de-anonymization attack end to end through the
// session API.
//
// An attacker holds a de-anonymized set of resting-state scans (the
// REST1 L-R session) and wants to identify the subjects behind an
// anonymized set (the REST2 R-L session). The attack builds functional
// connectomes, selects the ~100 connectome features with the highest
// leverage scores on the known set, enrolls those fingerprints into a
// gallery, and matches anonymous probes by Pearson correlation in the
// reduced space. The Attacker session owns the enrolled gallery: enroll
// once, identify any number of releases, under a cancellable context.
package main

import (
	"context"
	"fmt"
	"log"

	"brainprint"
)

func main() {
	ctx := context.Background()

	// A small synthetic stand-in for the HCP cohort (see DESIGN.md).
	params := brainprint.DefaultHCPParams()
	params.Subjects = 20
	params.Regions = 60
	cohort, err := brainprint.GenerateHCP(params)
	if err != nil {
		log.Fatal(err)
	}

	// The de-anonymized dataset: REST1, L-R encoding.
	knownScans, err := cohort.ScansFor(brainprint.Rest1, brainprint.LR)
	if err != nil {
		log.Fatal(err)
	}
	known, err := brainprint.GroupMatrixCtx(ctx, knownScans, brainprint.ConnectomeOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Enrollment: select the paper's top-100 leverage features on the
	// known group and store the z-scored fingerprints in a gallery.
	cfg := brainprint.DefaultAttackConfig()
	fps, idx, err := brainprint.Fingerprints(known, cfg)
	if err != nil {
		log.Fatal(err)
	}
	gallery := brainprint.NewGalleryIndexed(idx)
	ids := make([]string, params.Subjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("subject-%02d", i)
	}
	if err := gallery.EnrollMatrix(ids, fps); err != nil {
		log.Fatal(err)
	}

	// The gallery is storage; a store answers the queries. One shard
	// keeps the gallery's enrollment order as the canonical index order.
	store, err := brainprint.NewGalleryStore(gallery, 1)
	if err != nil {
		log.Fatal(err)
	}

	// The session: owns the engine and the query knobs. WithTopK(3)
	// keeps the three best hypotheses per probe.
	attacker, err := brainprint.NewAttacker(store, brainprint.WithTopK(3))
	if err != nil {
		log.Fatal(err)
	}

	// The anonymous dataset: REST2, R-L encoding — a different session
	// on a different day with the opposite phase encoding. Probes stay
	// raw connectome vectors; the gallery projects them through its
	// stored feature index.
	anonScans, err := cohort.ScansFor(brainprint.Rest2, brainprint.RL)
	if err != nil {
		log.Fatal(err)
	}
	anon, err := brainprint.GroupMatrixCtx(ctx, anonScans, brainprint.ConnectomeOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// One probe, ranked: Identify serves single queries.
	top, err := attacker.Identify(ctx, anon.Col(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("anonymous subject 0, ranked hypotheses:")
	for r, cand := range top {
		fmt.Printf("  %d) %-12s correlation %.4f\n", r+1, cand.ID, cand.Score)
	}

	// The whole release at once: IdentifyBatch.
	batch, err := attacker.IdentifyBatch(ctx, anon)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for j, ranked := range batch.Ranked {
		if ranked[0].ID == ids[j] {
			correct++
		}
	}
	fmt.Printf("\nidentified %d of %d anonymous subjects (top-1)\n", correct, len(batch.Ranked))
	fmt.Printf("feature space reduced from %d to %d connectome edges\n", known.Rows(), len(idx))
	for j := 0; j < 5; j++ {
		status := "ok"
		if batch.Ranked[j][0].Index != j {
			status = "MISS"
		}
		fmt.Printf("anonymous subject %2d -> %s (%s)\n", j, batch.Ranked[j][0].ID, status)
	}
	fmt.Println("...")
}
