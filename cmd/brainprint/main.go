// Command brainprint regenerates the paper's figures and tables on
// synthetic cohorts, manages persistent fingerprint galleries, and
// serves a loaded gallery as an HTTP identification service. Each
// experiment prints a textual rendering of the corresponding artifact
// (ASCII heatmaps for matrix figures, aligned tables for the result
// tables); the gallery subcommands enroll synthetic cohorts to disk and
// attack them incrementally with ranked top-k queries; serve exposes
// the same query engine over HTTP/JSON.
//
// Usage:
//
//	brainprint [-experiment <name>|all] [flags]
//	brainprint gallery enroll|shard|live|compact|defend|query|info|probe [flags]
//	brainprint defense sweep [flags]
//	brainprint serve -db gallery.bpg|store.bpm|live-dir [-writable] [flags]
//	brainprint router -primary url [-replicas url,url...] [flags]
//
// The experiment list (fig1 … defense) is generated from the library's
// experiment registry — run 'brainprint -help' for the current set.
// The -scale flag selects cohort dimensions: "small" is fast and good
// for smoke runs, "medium" is a compromise, and "paper" matches the
// paper's 100 subjects × 360 regions (slow; minutes). Experiments run
// under a signal-aware context: Ctrl-C aborts the sweep promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"brainprint"
)

// usageText is the short usage block fail appends to every CLI error.
// The experiment list comes from the registry, so usage can never drift
// from what run dispatches.
var usageText = fmt.Sprintf(`usage:
  brainprint [-experiment %s|all] [flags]
  brainprint gallery enroll|shard|live|compact|defend|query|info|probe [flags]
  brainprint defense sweep [flags]
  brainprint serve -db gallery.bpg|store.bpm|live-dir [-writable] [-replica-of url] [flags]
  brainprint router -primary url [-replicas url,url...] [flags]

run 'brainprint -help', 'brainprint gallery <subcommand> -help',
'brainprint defense sweep -help', 'brainprint serve -help' or
'brainprint router -help' for the flags of each form`,
	strings.Join(brainprint.ExperimentNames(), "|"))

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "gallery" {
		if err := runGallery(args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
			fail(err)
		}
		return
	}
	if len(args) > 0 && args[0] == "defense" {
		if err := runDefense(args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
			fail(err)
		}
		return
	}
	if len(args) > 0 && args[0] == "serve" {
		if err := runServe(args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
			fail(err)
		}
		return
	}
	if len(args) > 0 && args[0] == "router" {
		if err := runRouter(args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
			fail(err)
		}
		return
	}
	fs := flag.NewFlagSet("brainprint", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all",
			fmt.Sprintf("which experiment to run: %s, or all", strings.Join(brainprint.ExperimentNames(), ", ")))
		scale    = fs.String("scale", "small", "cohort scale: small, medium, or paper")
		subjects = fs.Int("subjects", 0, "override subject count (0 = scale default)")
		regions  = fs.Int("regions", 0, "override region count (0 = scale default)")
		features = fs.Int("features", 100, "size of the principal features subspace")
		trials   = fs.Int("trials", 5, "repeated trials for resampled experiments")
		seed     = fs.Int64("seed", 1, "master random seed")
		workers  = fs.Int("parallelism", 0, "worker count for the parallel execution engine (0 = all cores, 1 = serial); results are identical at any setting")
	)
	if err := parseFlags(fs, args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fail(err)
	}
	if fs.NArg() > 0 {
		fail(fmt.Errorf("unknown subcommand %q", fs.Arg(0)))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *experiment, *scale, *subjects, *regions, *features, *trials, *seed, *workers); err != nil {
		fail(err)
	}
}

// fail is the single exit path for CLI errors: every flag, experiment
// and gallery subcommand error is routed here, printing the error plus
// the usage text on stderr and exiting non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "brainprint:", err)
	fmt.Fprintln(os.Stderr)
	fmt.Fprintln(os.Stderr, usageText)
	os.Exit(1)
}

// parseFlags parses with the flag package's own chatter silenced so
// parse errors flow through fail like every other error. -help prints
// the flag set's defaults and returns flag.ErrHelp, which main treats
// as a clean exit — parseFlags itself never terminates the process, so
// the subcommand funcs stay callable in-process (tests included).
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(os.Stderr)
		fs.Usage()
	}
	return err
}

// run executes the selected experiments through the registry under one
// attack configuration: cohorts generate lazily based on what each
// registry entry declares it needs, and every experiment runs under ctx
// so cancellation aborts mid-sweep.
func run(ctx context.Context, experiment, scale string, subjects, regions, features, trials int, seed int64, workers int) error {
	hcpParams, adhdParams, err := paramsForScale(scale, subjects, regions, seed)
	if err != nil {
		return err
	}
	brainprint.SetParallelism(workers)
	attack := brainprint.DefaultAttackConfig()
	attack.Features = features
	attack.Parallelism = workers

	var (
		hcp  *brainprint.HCPCohort
		adhd *brainprint.ADHDCohort
	)
	needHCP := func() (*brainprint.HCPCohort, error) {
		if hcp != nil {
			return hcp, nil
		}
		start := time.Now()
		c, err := brainprint.GenerateHCP(hcpParams)
		if err != nil {
			return nil, err
		}
		fmt.Printf("generated HCP-like cohort: %d subjects, %d regions (%.1fs)\n\n",
			hcpParams.Subjects, hcpParams.Regions, time.Since(start).Seconds())
		hcp = c
		return hcp, nil
	}
	needADHD := func() (*brainprint.ADHDCohort, error) {
		if adhd != nil {
			return adhd, nil
		}
		start := time.Now()
		c, err := brainprint.GenerateADHD(adhdParams)
		if err != nil {
			return nil, err
		}
		fmt.Printf("generated ADHD-like cohort: %d subjects, %d regions (%.1fs)\n\n",
			adhdParams.NumSubjects(), adhdParams.Regions, time.Since(start).Seconds())
		adhd = c
		return adhd, nil
	}

	experiments := []string{experiment}
	if experiment == "all" {
		experiments = brainprint.ExperimentNames()
	}
	for _, exp := range experiments {
		spec, ok := brainprint.LookupExperiment(exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (want %s, or all)",
				exp, strings.Join(brainprint.ExperimentNames(), ", "))
		}
		in := brainprint.ExperimentInput{Seed: seed, Trials: trials}
		if spec.NeedsHCP {
			if in.HCP, err = needHCP(); err != nil {
				return err
			}
		}
		if spec.NeedsADHD {
			if in.ADHD, err = needADHD(); err != nil {
				return err
			}
		}
		start := time.Now()
		res, err := brainprint.RunExperiment(ctx, exp, attack, in)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %.1fs]\n\n", exp, time.Since(start).Seconds())
	}
	return nil
}

// paramsForScale maps the scale presets to cohort parameters.
func paramsForScale(scale string, subjects, regions int, seed int64) (brainprint.HCPParams, brainprint.ADHDParams, error) {
	var hcp brainprint.HCPParams
	var adhd brainprint.ADHDParams
	switch scale {
	case "small":
		hcp = brainprint.DefaultHCPParams()
		hcp.Subjects = 20
		hcp.Regions = 60
		adhd = brainprint.DefaultADHDParams()
	case "medium":
		hcp = brainprint.DefaultHCPParams()
		hcp.Subjects = 50
		hcp.Regions = 120
		adhd = brainprint.DefaultADHDParams()
		adhd.Controls = 60
		adhd.Subtype1 = 24
		adhd.Subtype2 = 4
		adhd.Subtype3 = 18
		adhd.Regions = 116
	case "paper":
		hcp = brainprint.PaperScaleHCPParams()
		adhd = brainprint.PaperScaleADHDParams()
	default:
		return hcp, adhd, fmt.Errorf("unknown scale %q (want small, medium, or paper)", scale)
	}
	if subjects > 0 {
		hcp.Subjects = subjects
	}
	if regions > 0 {
		hcp.Regions = regions
	}
	hcp.Seed = seed
	adhd.Seed = seed + 1
	return hcp, adhd, nil
}
