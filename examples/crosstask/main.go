// Crosstask reproduces the paper's central Figure 5 finding at small
// scale: de-anonymizing one dataset compromises subjects in datasets of
// *different* tasks, with identifiability ordered by how strongly each
// task expresses the individual signature (rest ≫ language > social ≫
// motor/working-memory). Experiments run by name through the registry
// under a cancellable context; the returned interface asserts back to
// the typed result for programmatic inspection.
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

	attack := brainprint.DefaultAttackConfig()
	attack.Features = 80
	out, err := brainprint.RunExperiment(context.Background(), "fig5", attack,
		brainprint.ExperimentInput{HCP: cohort})
	if err != nil {
		log.Fatal(err)
	}
	res := out.(*brainprint.CrossTaskResult)
	fmt.Println(res.Render())

	// Read off the paper's two headline observations.
	find := func(t brainprint.Task) int {
		for i, c := range res.Conditions {
			if c == t {
				return i
			}
		}
		return -1
	}
	rest := find(brainprint.Rest1)
	lang := find(brainprint.Language)
	motor := find(brainprint.Motor)
	fmt.Printf("rest→rest identification:     %.0f%%\n", 100*res.Accuracy.At(rest, rest))
	fmt.Printf("rest→language identification: %.0f%%  (a de-anonymized rest dataset leaks task datasets too)\n",
		100*res.Accuracy.At(rest, lang))
	fmt.Printf("motor→motor identification:   %.0f%%  (motor barely expresses the signature, even on-diagonal)\n",
		100*res.Accuracy.At(motor, motor))
}
