// Defense demonstrates the countermeasure the paper's §4 sketches: the
// attack localizes identity to a small set of high-leverage connectome
// features, so a data publisher can concentrate noise exactly there
// before release. At a matched total-distortion budget, targeted noise
// buys strictly more privacy (lower re-identification) than spreading
// the same noise uniformly — while task-level analyses of the released
// data survive.
package main

import (
	"context"
	"fmt"
	"log"

	"brainprint"
)

func main() {
	params := brainprint.DefaultHCPParams()
	params.Subjects = 16
	params.Regions = 50
	cohort, err := brainprint.GenerateHCP(params)
	if err != nil {
		log.Fatal(err)
	}

	res, err := brainprint.RunExperiment(context.Background(), "defense",
		brainprint.DefaultAttackConfig(), brainprint.ExperimentInput{
			HCP:                cohort,
			Sigmas:             []float64{0, 0.3, 0.6},
			DefenseTopFeatures: 200,
			Seed:               11,
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())

	fmt.Println("reading the table:")
	fmt.Println(" - ident-acc is the attacker's success on the protected release;")
	fmt.Println("   the publisher wants it low. At every sigma the targeted rows")
	fmt.Println("   sit at or below the uniform rows despite equal distortion.")
	fmt.Println(" - task-acc and clustering-shift are utility: analyses of the")
	fmt.Println("   released data must still work.")
}
