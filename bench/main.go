// Command bench is the serving benchmark: it builds the real stack
// (router → serve → gallery engine) in one process from the public
// constructors and drives it with a seeded closed-loop load generator.
// README.md in this directory documents the workloads, every metric and
// the rejected designs.
//
//	sh bench/run.sh --workload read-1k --seed 1 --seconds 15 --trace 0
//	sh bench/run.sh -seed 1                  # all four workloads, both runs
//	sh bench/run.sh -runs 10                 # repeatability table
//	sh bench/run.sh -runs 10 -check-repeat   # two sets, held to the bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    int
	// opsScale, when positive, bounds the phases by operation count —
	// the full-scale per-client count times this — instead of by time,
	// so both sides of a comparison send identical request bytes.
	opsScale    float64
	smoke       bool
	runs        int
	checkRepeat bool
	dataDir     string
	outDir      string
}

func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result line (default: all four, each in a fresh process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: data, probes and request order are a pure function of it")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
	fs.Float64Var(&o.opsScale, "ops-scale", 0, "bound phases by operation count (the full-scale count times this) instead of -seconds")
	fs.BoolVar(&o.smoke, "smoke", false, "smoke scale: 10k-subject stores, 1/200 op counts, one set-up, short probes")
	fs.IntVar(&o.runs, "runs", 0, "repeatability mode: this many untraced runs per workload, one seed each, with median, quartiles and spread per cell")
	fs.BoolVar(&o.checkRepeat, "check-repeat", false, "with -runs: run two sets and fail if a cell's spread or the shift between the sets' medians exceeds its bound in BENCHMARK.json")
	fs.StringVar(&o.dataDir, "data-dir", filepath.Join(".bench_build", "data"), "where stores, logs and replicas are written (a real filesystem, not tmpfs)")
	fs.StringVar(&o.outDir, "out-dir", filepath.Join("bench", "out"), "where traces and result files are written")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.runs < 0 || o.opsScale < 0 {
		return fmt.Errorf("-seconds must be positive, -trace 0 or 1, -runs and -ops-scale non-negative")
	}
	if o.smoke {
		o.opsScale = 1.0 / 200
	}
	if o.checkRepeat && o.runs < 2 {
		return fmt.Errorf("-check-repeat needs -runs of at least 2")
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	switch {
	case o.runs > 0:
		return repeatMode(o, selected, stdout, stderr)
	case o.workload != "":
		out, err := runWorkload(o, selected[0], stderr)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(out)
	}
	return fullMode(o, selected, stdout, stderr)
}

// child runs one workload in a fresh process — this binary again — and
// returns its result line. The child's log goes to stderr as it runs.
func child(o options, w workload, seed int64, trace int, stderr io.Writer) (*runOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"--ops-scale", strconv.FormatFloat(o.opsScale, 'g', -1, 64),
		"--data-dir", o.dataDir, "--out-dir", o.outDir,
	}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w", w.name, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var out runOutput
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return &out, nil
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailShare float64                `json:"fail_share"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// fullMode runs every selected workload twice, each run in a fresh
// process — untraced for the end-to-end metrics, traced for the
// per-layer ones — and writes the results with their environment. It
// claims nothing: the file ends with "claim": null.
func fullMode(o options, selected []workload, stdout, stderr io.Writer) error {
	results := struct {
		Environment environment      `json:"environment"`
		Seed        int64            `json:"seed"`
		Seconds     float64          `json:"seconds"`
		Workloads   []workloadResult `json:"workloads"`
		Claim       *string          `json:"claim"`
	}{Environment: readEnvironment(o.dataDir), Seed: o.seed, Seconds: o.seconds}
	allCorrect := true
	for _, w := range selected {
		plain, err := child(o, w, o.seed, 0, stderr)
		if err != nil {
			return err
		}
		traced, err := child(o, w, o.seed, 1, stderr)
		if err != nil {
			return err
		}
		allCorrect = allCorrect && plain.Correct && traced.Correct
		results.Workloads = append(results.Workloads, workloadResult{
			Workload: w.name, Why: w.why,
			Correct:   plain.Correct && traced.Correct,
			Attempted: plain.Attempted, Failed: plain.Failed,
			FailShare: float64(plain.Failed) / float64(max(plain.Attempted, 1)),
			EndToEnd:  plain.Metrics, PerLayer: traced.Metrics,
		})
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("results-seed%d.json", o.seed))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	if _, err := stdout.Write(append(raw, '\n')); err != nil {
		return err
	}
	if !allCorrect {
		return fmt.Errorf("a workload's answers were wrong; see the log above")
	}
	return nil
}

// repeatMode is -runs N: N untraced runs per workload, seeds seed …
// seed+N-1, printed per run with median, quartiles and spread (the
// interquartile range over the median, as the driver computes it) per
// end-to-end cell. With -check-repeat it does that twice and holds both
// the spreads and the shift between the two medians to the bounds in
// BENCHMARK.json, printing each observed number beside its bound.
func repeatMode(o options, selected []workload, stdout, stderr io.Writer) error {
	bounds, sets := map[string]float64{}, 1
	if o.checkRepeat {
		sets = 2
		b, err := readBenchmarkFile("BENCHMARK.json")
		if err != nil {
			return fmt.Errorf("-check-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
		}
		for _, e := range b.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	failed := false
	for _, w := range selected {
		// values[set][metric] are the runs' values.
		values := make([]map[string][]float64, sets)
		for set := range values {
			values[set] = map[string][]float64{}
			for r := 0; r < o.runs; r++ {
				t0 := time.Now()
				out, err := child(o, w, o.seed+int64(r), 0, io.Discard)
				if err != nil {
					return err
				}
				if !out.Correct || out.Failed > 0 {
					return fmt.Errorf("%s seed %d: correct=%v, %d of %d failed", w.name, o.seed+int64(r), out.Correct, out.Failed, out.Attempted)
				}
				for _, d := range endToEnd {
					values[set][d.name] = append(values[set][d.name], out.Metrics[d.name].Value)
				}
				fmt.Fprintf(stderr, "%s set %d run %d: %.1fs\n", w.name, set+1, r+1, time.Since(t0).Seconds())
			}
		}
		for _, d := range endToEnd {
			for set := range values {
				xs := values[set][d.name]
				fmt.Fprintf(stdout, "%-18s %-20s set %d  runs %v\n", w.name, d.name, set+1, xs)
				if len(xs) < 2 {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				sp := spread(xs)
				line := fmt.Sprintf("%-18s %-20s set %d  median %.6g %s  quartiles %.6g .. %.6g  spread %.4f",
					w.name, d.name, set+1, q2, d.unit, q1, q3, sp)
				// setup_s is held to its bound on the shift only: its
				// spread is dominated by the disk.
				if bound, ok := bounds[d.name]; ok {
					line += fmt.Sprintf("  bound %.3f", bound)
					if d.name != "setup_s" && sp > bound {
						line += "  SPREAD EXCEEDS BOUND"
						failed = true
					}
				}
				fmt.Fprintln(stdout, line)
			}
			if o.checkRepeat {
				a, b := median(values[0][d.name]), median(values[1][d.name])
				worse := (b - a) / a
				if d.better == "higher" {
					worse = (a - b) / a
				}
				line := fmt.Sprintf("%-18s %-20s second set worse by %+.4f of the first median, bound %.3f", w.name, d.name, worse, bounds[d.name])
				if worse > bounds[d.name] {
					line += "  SHIFT EXCEEDS BOUND"
					failed = true
				}
				fmt.Fprintln(stdout, line)
			}
		}
	}
	if failed {
		return fmt.Errorf("repeatability check failed: see the cells marked above")
	}
	return nil
}
