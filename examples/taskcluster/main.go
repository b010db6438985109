// Taskcluster reproduces Figure 6 at small scale: t-SNE maps every
// scan's 64k-dimensional connectome vector to 2-D, where scans cluster
// by *task* rather than by subject; an attacker who knows the task
// labels of half the subjects can read off the task of every anonymous
// scan from its nearest labelled neighbour.
package main

import (
	"context"
	"fmt"
	"log"

	"brainprint"
)

func main() {
	params := brainprint.DefaultHCPParams()
	params.Subjects = 12
	params.Regions = 48
	cohort, err := brainprint.GenerateHCP(params)
	if err != nil {
		log.Fatal(err)
	}

	res, err := brainprint.RunExperiment(context.Background(), "fig6",
		brainprint.DefaultAttackConfig(), brainprint.ExperimentInput{
			HCP:           cohort,
			KnownFraction: 0.5,
			TSNE:          &brainprint.TSNEConfig{Perplexity: 12, Iterations: 400, Seed: 7},
			Seed:          7,
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
	fmt.Println("each digit is one scan; eight compact clusters = eight conditions,")
	fmt.Println("exactly the structure the paper's Figure 6 shows for the real HCP.")
}
