// Command datagen generates a synthetic HCP-style cohort and exports it
// as CSV: one region×time series file per subject's REST1/LR scan plus
// the per-subject task-performance table.
//
// Usage:
//
//	datagen -csv dir [-subjects N] [-regions N] [-seed S]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"brainprint/internal/synth"
)

func main() {
	var (
		csvDir   = flag.String("csv", "", "output directory for the CSV exports (required)")
		subjects = flag.Int("subjects", 0, "override subject count")
		regions  = flag.Int("regions", 0, "override region count")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	if err := run(*csvDir, *subjects, *regions, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(csvDir string, subjects, regions int, seed int64) error {
	if csvDir == "" {
		return errors.New("-csv is required")
	}
	p := synth.DefaultHCPParams()
	if subjects > 0 {
		p.Subjects = subjects
	}
	if regions > 0 {
		p.Regions = regions
	}
	p.Seed = seed
	cohort, err := synth.GenerateHCP(p)
	if err != nil {
		return err
	}
	return exportCSV(csvDir, cohort)
}

// exportCSV writes one series CSV per resting scan plus the performance
// table.
func exportCSV(dir string, cohort *synth.HCPCohort) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for s := 0; s < cohort.Params.Subjects; s++ {
		scan, err := cohort.Scan(s, synth.Rest1, synth.LR)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("subject%03d_rest1_lr.csv", s))
		if err := writeFile(path, func(w io.Writer) error { return synth.WriteSeriesCSV(w, scan) }); err != nil {
			return err
		}
	}
	if err := writeFile(filepath.Join(dir, "performance.csv"), func(w io.Writer) error { return synth.WritePerformanceCSV(w, cohort) }); err != nil {
		return err
	}
	fmt.Printf("wrote %d series CSVs and performance.csv to %s\n", cohort.Params.Subjects, dir)
	return nil
}

// writeFile creates path and fills it with write, returning the first
// error of the create, the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
