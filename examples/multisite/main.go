// Multisite reproduces Table 2: scans of the same subject acquired on
// different MRI machines differ by scanner-specific noise; the paper
// simulates this by adding Gaussian noise (mean = signal mean, variance
// a fraction of signal variance) to the second session and shows the
// attack stays above 90% accuracy at 10% noise and degrades gracefully.
package main

import (
	"context"
	"fmt"
	"log"

	"brainprint"
)

func main() {
	hcpParams := brainprint.DefaultHCPParams()
	hcpParams.Subjects = 16
	hcpParams.Regions = 50
	hcp, err := brainprint.GenerateHCP(hcpParams)
	if err != nil {
		log.Fatal(err)
	}
	adhdParams := brainprint.DefaultADHDParams()
	adhd, err := brainprint.GenerateADHD(adhdParams)
	if err != nil {
		log.Fatal(err)
	}

	res, err := brainprint.RunExperiment(context.Background(), "table2",
		brainprint.DefaultAttackConfig(), brainprint.ExperimentInput{
			HCP:         hcp,
			ADHD:        adhd,
			NoiseLevels: []float64{0.1, 0.2, 0.3, 0.5},
			Trials:      5,
			Seed:        3,
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
	fmt.Println("accuracy decays with noise but stays far above chance —")
	fmt.Printf("chance level here would be %.1f%% (HCP) / %.1f%% (ADHD).\n",
		100.0/float64(hcpParams.Subjects), 100.0/float64(adhdParams.NumSubjects()))
}
