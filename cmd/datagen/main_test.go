package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"brainprint/internal/synth"
)

// readCSV parses one exported CSV file.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rows
}

// TestRunHCPRoundTrip checks that every exported series parses back to
// the generated cohort's values bit for bit, and that the performance
// table has a header and one row per subject.
func TestRunHCPRoundTrip(t *testing.T) {
	csvDir := filepath.Join(t.TempDir(), "csv")
	if err := run(csvDir, 3, 16, 2); err != nil {
		t.Fatalf("run: %v", err)
	}
	p := synth.DefaultHCPParams()
	p.Subjects, p.Regions, p.Seed = 3, 16, 2
	cohort, err := synth.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	for s, name := range []string{"subject000_rest1_lr.csv", "subject001_rest1_lr.csv", "subject002_rest1_lr.csv"} {
		scan, err := cohort.Scan(s, synth.Rest1, synth.LR)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		rows := readCSV(t, filepath.Join(csvDir, name))
		regions, frames := scan.Series.Dims()
		if len(rows) != regions+1 || len(rows[0]) != frames+1 {
			t.Fatalf("%s: %d×%d cells, want %d×%d", name, len(rows), len(rows[0]), regions+1, frames+1)
		}
		for i, row := range rows[1:] {
			for j, cell := range row[1:] {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil || v != scan.Series.At(i, j) {
					t.Fatalf("%s region %d frame %d: %q, want %v", name, i, j, cell, scan.Series.At(i, j))
				}
			}
		}
	}
	perf := readCSV(t, filepath.Join(csvDir, "performance.csv"))
	if len(perf) != 1+3 || perf[0][0] != "subject" || len(perf[0]) != 1+len(synth.PerformanceTasks) {
		t.Fatalf("performance table header %v with %d rows, want subject + %d tasks and 4 rows", perf[0], len(perf), len(synth.PerformanceTasks))
	}
}

func TestRunMissingCSV(t *testing.T) {
	if err := run("", 2, 8, 1); err == nil || err.Error() != "-csv is required" {
		t.Fatalf("run without -csv = %v, want \"-csv is required\"", err)
	}
}

func TestRunBadOutputPath(t *testing.T) {
	// A directory cannot be made under a regular file, whoever runs this.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(file, "csv"), 2, 8, 1); err == nil {
		t.Error("expected error for unwritable -csv directory")
	}
}
