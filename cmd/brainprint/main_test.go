package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"brainprint"
)

func TestParamsForScale(t *testing.T) {
	for _, scale := range []string{"small", "medium", "paper"} {
		hcp, adhd, err := paramsForScale(scale, 0, 0, 3)
		if err != nil {
			t.Fatalf("%s: %v", scale, err)
		}
		if err := hcp.Validate(); err != nil {
			t.Errorf("%s hcp params invalid: %v", scale, err)
		}
		if err := adhd.Validate(); err != nil {
			t.Errorf("%s adhd params invalid: %v", scale, err)
		}
		if hcp.Seed != 3 || adhd.Seed != 4 {
			t.Errorf("%s: seeds not propagated", scale)
		}
	}
	if _, _, err := paramsForScale("galactic", 0, 0, 1); err == nil {
		t.Error("expected error for unknown scale")
	}
}

func TestParamsForScaleOverrides(t *testing.T) {
	hcp, _, err := paramsForScale("small", 7, 44, 1)
	if err != nil {
		t.Fatalf("paramsForScale: %v", err)
	}
	if hcp.Subjects != 7 || hcp.Regions != 44 {
		t.Errorf("overrides ignored: %d subjects, %d regions", hcp.Subjects, hcp.Regions)
	}
}

func TestPaperScaleKeepsCalibration(t *testing.T) {
	hcp, adhd, err := paramsForScale("paper", 0, 0, 1)
	if err != nil {
		t.Fatalf("paramsForScale: %v", err)
	}
	if hcp.EncodingVariation < 0.2 {
		t.Error("paper scale should use the thin-margin calibration")
	}
	if hcp.Regions != 360 || adhd.Regions != 116 {
		t.Errorf("paper-scale regions %d/%d want 360/116", hcp.Regions, adhd.Regions)
	}
}

// TestRunSingleExperiments smoke-tests the CLI driver end to end on a
// tiny cohort for each experiment that only needs one dataset.
func TestRunSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	for _, exp := range []string{"fig1", "fig7"} {
		if err := run(context.Background(), exp, "small", 8, 30, 60, 2, 5, 0); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "fig99", "small", 8, 30, 60, 2, 5, 1); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run(context.Background(), "fig1", "nope", 0, 0, 60, 2, 5, 1); err == nil {
		t.Error("expected error for unknown scale")
	}
}

// TestRunCancelled: a cancelled context aborts an experiment run with
// the context error instead of a result.
func TestRunCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, "fig1", "small", 8, 30, 60, 2, 5, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("run under cancelled ctx: %v", err)
	}
}

// TestUsageFromRegistry pins the satellite fix: the usage block and the
// registry can no longer drift, so every registered experiment —
// defense included — appears in the usage text.
func TestUsageFromRegistry(t *testing.T) {
	for _, name := range brainprint.ExperimentNames() {
		if !strings.Contains(usageText, name) {
			t.Errorf("usage text is missing experiment %q:\n%s", name, usageText)
		}
	}
	for _, want := range []string{"defense", "gallery enroll|shard|live|compact|defend|query|info|probe", "defense sweep", "serve -db", "-writable"} {
		if !strings.Contains(usageText, want) {
			t.Errorf("usage text is missing %q", want)
		}
	}
}

// TestUnknownSubcommand runs main in a child process: a positional
// argument that names no subcommand must exit 1 with the usage text
// instead of falling through to the experiment sweep.
func TestUnknownSubcommand(t *testing.T) {
	if args := os.Getenv("BRAINPRINT_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"brainprint"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, name string }{
		{"sevre -db x.bpg", "sevre"},
		{"-experiment fig1 -subjects 4 -regions 20 routr", "routr"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownSubcommand$")
		cmd.Env = append(os.Environ(), "BRAINPRINT_MAIN_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("brainprint %s: err = %v, want exit status 1\n%s", tc.args, err, out)
		}
		want := fmt.Sprintf("unknown subcommand %q", tc.name)
		if !strings.Contains(string(out), want) || !strings.Contains(string(out), usageText) {
			t.Errorf("brainprint %s: output lacks %s and the usage text:\n%s", tc.args, want, out)
		}
	}
}

// TestGallerySubcommands drives enroll → info → append → query against
// a temp gallery file on a tiny cohort.
func TestGallerySubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	db := filepath.Join(t.TempDir(), "hcp.bpg")
	var out bytes.Buffer
	size := []string{"-scale", "small", "-subjects", "6", "-regions", "30"}

	enroll := append([]string{"enroll", "-db", db, "-task", "REST1", "-encoding", "LR", "-features", "40"}, size...)
	if err := runGallery(enroll, &out); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	if !strings.Contains(out.String(), "enrolled 6 subjects") {
		t.Errorf("enroll output: %q", out.String())
	}

	out.Reset()
	if err := runGallery([]string{"info", "-db", db}, &out); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, want := range []string{"subjects:       6", "features:       40", "hcp-s000"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("info output missing %q:\n%s", want, out.String())
		}
	}

	// Re-enrolling without -append or -force must refuse to clobber.
	if err := runGallery(enroll, &out); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("expected overwrite refusal, got %v", err)
	}

	out.Reset()
	appendArgs := append([]string{"enroll", "-db", db, "-append", "-seed", "9", "-idprefix", "site2", "-task", "REST1", "-encoding", "LR"}, size...)
	if err := runGallery(appendArgs, &out); err != nil {
		t.Fatalf("append: %v", err)
	}
	if !strings.Contains(out.String(), "now 12 subjects") {
		t.Errorf("append output: %q", out.String())
	}

	out.Reset()
	query := append([]string{"query", "-db", db, "-task", "REST2", "-encoding", "RL", "-k", "3"}, size...)
	if err := runGallery(query, &out); err != nil {
		t.Fatalf("query: %v", err)
	}
	if !strings.Contains(out.String(), "12 enrolled subjects (k=3)") || !strings.Contains(out.String(), "top-1:") {
		t.Errorf("query output:\n%s", out.String())
	}
}

// TestGalleryShardSubcommands drives the sharded-store lifecycle from
// the CLI: enroll a single-file gallery, convert it with `gallery
// shard`, inspect the per-shard stats, and query the store —
// the query accuracy line must match the single-file gallery's, since
// sharded scores are bit-identical.
func TestGalleryShardSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	db := filepath.Join(dir, "hcp.bpg")
	manifest := filepath.Join(dir, "hcp.bpm")
	var out bytes.Buffer
	size := []string{"-scale", "small", "-subjects", "6", "-regions", "30"}

	enroll := append([]string{"enroll", "-db", db, "-task", "REST1", "-encoding", "LR", "-features", "40"}, size...)
	if err := runGallery(enroll, &out); err != nil {
		t.Fatalf("enroll: %v", err)
	}

	out.Reset()
	if err := runGallery([]string{"shard", "-db", db, "-out", manifest, "-shards", "3"}, &out); err != nil {
		t.Fatalf("shard: %v", err)
	}
	if !strings.Contains(out.String(), "sharded 6 subjects") || !strings.Contains(out.String(), "(3 shards)") {
		t.Errorf("shard output: %q", out.String())
	}
	// Refuses to clobber without -force.
	if err := runGallery([]string{"shard", "-db", db, "-out", manifest, "-shards", "3"}, &out); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("expected overwrite refusal, got %v", err)
	}

	out.Reset()
	if err := runGallery([]string{"info", "-db", manifest}, &out); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, want := range []string{"layout:         3 shard(s)", "subjects:       6", "checksum ok", "hcp.s000.bpg"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("info output missing %q:\n%s", want, out.String())
		}
	}

	// Query against the manifest and the single file: same accuracy line.
	query := append([]string{"query", "-task", "REST2", "-encoding", "RL", "-k", "3"}, size...)
	out.Reset()
	if err := runGallery(append([]string{query[0], "-db", manifest}, query[1:]...), &out); err != nil {
		t.Fatalf("query (sharded): %v", err)
	}
	sharded := out.String()
	out.Reset()
	if err := runGallery(append([]string{query[0], "-db", db}, query[1:]...), &out); err != nil {
		t.Fatalf("query (single): %v", err)
	}
	single := out.String()
	if !strings.Contains(sharded, "6 enrolled subjects (k=3)") || !strings.Contains(sharded, "top-1:") {
		t.Errorf("sharded query output:\n%s", sharded)
	}
	shardAcc := sharded[strings.Index(sharded, "top-1:"):]
	singleAcc := single[strings.Index(single, "top-1:"):]
	if shardAcc != singleAcc {
		t.Errorf("sharded accuracy %q != single-file %q", shardAcc, singleAcc)
	}

	// Direct sharded enrollment (no intermediate single file).
	direct := filepath.Join(dir, "direct.bpm")
	out.Reset()
	enrollSharded := append([]string{"enroll", "-db", direct, "-task", "REST1", "-encoding", "LR", "-features", "40", "-shards", "2"}, size...)
	if err := runGallery(enrollSharded, &out); err != nil {
		t.Fatalf("enroll -shards: %v", err)
	}
	if !strings.Contains(out.String(), "(2 shards)") {
		t.Errorf("enroll -shards output: %q", out.String())
	}
	// -append conflicts with sharded output.
	if err := runGallery([]string{"enroll", "-db", direct, "-append", "-shards", "2"}, &out); err == nil || !strings.Contains(err.Error(), "-append") {
		t.Errorf("expected -append/-shards conflict, got %v", err)
	}
}

// TestGalleryInfoFlagsMissingShard: deleting one shard file must leave
// info working, flagging the missing shard instead of failing.
func TestGalleryInfoFlagsMissingShard(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "hcp.bpm")
	var out bytes.Buffer
	enroll := []string{"enroll", "-db", manifest, "-task", "REST1", "-encoding", "LR", "-features", "40",
		"-shards", "3", "-scale", "small", "-subjects", "6", "-regions", "30"}
	if err := runGallery(enroll, &out); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "hcp.s001.bpg")); err != nil {
		t.Fatalf("remove shard: %v", err)
	}
	out.Reset()
	if err := runGallery([]string{"info", "-db", manifest}, &out); err != nil {
		t.Fatalf("info on degraded store: %v", err)
	}
	for _, want := range []string{"FAULT", "shard file missing", "shard(s) unavailable"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("degraded info output missing %q:\n%s", want, out.String())
		}
	}
}

func TestGallerySubcommandErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runGallery(nil, &out); err == nil {
		t.Error("expected error for missing subcommand")
	}
	if err := runGallery([]string{"frobnicate"}, &out); err == nil {
		t.Error("expected error for unknown subcommand")
	}
	if err := runGallery([]string{"enroll"}, &out); err == nil {
		t.Error("expected error for missing -db")
	}
	if err := runGallery([]string{"query", "-db", ""}, &out); err == nil {
		t.Error("expected error for empty -db")
	}
	if err := runGallery([]string{"info", "-db", filepath.Join(t.TempDir(), "nope.bpg")}, &out); err == nil {
		t.Error("expected error for a missing gallery file")
	}
	if err := runGallery([]string{"enroll", "-db", "x.bpg", "-dataset", "petscan"}, &out); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if err := runGallery([]string{"enroll", "-db", "x.bpg", "-task", "JUGGLING"}, &out); err == nil {
		t.Error("expected error for unknown task")
	}
	if err := runGallery([]string{"enroll", "-db", "x.bpg", "-dataset", "adhd", "-session", "5"}, &out); err == nil {
		t.Error("expected error for out-of-range session")
	}
	if err := runGallery([]string{"query", "-db", "x.bpg", "-bogusflag"}, &out); err == nil {
		t.Error("expected flag parse error to surface as an error, not an exit")
	}
	// The removed precision flags are ordinary unknown flags now.
	for _, args := range [][]string{
		{"enroll", "-db", "x.bpg", "-quantize"},
		{"shard", "-db", "x.bpg", "-out", "x.bpm", "-quantize"},
		{"defend", "-db", "x.bpg", "-out", "x.bpm", "-defense", "ksame(k=2)", "-quantize"},
		{"query", "-db", "x.bpg", "-scan", "float32"},
	} {
		if err := runGallery(args, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("gallery %v = %v, want the unknown-flag error", args, err)
		}
	}
	if err := runGallery([]string{"enroll", "-db", "x.bpg", "-append", "-features", "40"}, &out); err == nil || !strings.Contains(err.Error(), "-append") {
		t.Errorf("expected -features/-append conflict error, got %v", err)
	}
	// -help must return flag.ErrHelp, not terminate the process.
	if err := runGallery([]string{"query", "-help"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("runGallery(-help) = %v, want flag.ErrHelp", err)
	}
}

// TestGalleryLiveSubcommands drives the live-gallery lifecycle from the
// CLI: enroll a single-file gallery, convert it with `gallery live`,
// query the live directory (answers must match the source store, since
// live scores are bit-identical), compact it, and inspect it.
func TestGalleryLiveSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	db := filepath.Join(dir, "hcp.bpg")
	liveDir := filepath.Join(dir, "hcp.live")
	var out bytes.Buffer
	size := []string{"-scale", "small", "-subjects", "6", "-regions", "30"}

	enroll := append([]string{"enroll", "-db", db, "-task", "REST1", "-encoding", "LR", "-features", "40"}, size...)
	if err := runGallery(enroll, &out); err != nil {
		t.Fatalf("enroll: %v", err)
	}

	out.Reset()
	if err := runGallery([]string{"live", "-from", db, "-db", liveDir, "-shards", "2"}, &out); err != nil {
		t.Fatalf("live: %v", err)
	}
	if !strings.Contains(out.String(), "6 subjects") || !strings.Contains(out.String(), "generation 0") {
		t.Errorf("live output: %q", out.String())
	}

	// Converting again must refuse to clobber the live directory.
	if err := runGallery([]string{"live", "-from", db, "-db", liveDir}, &out); err == nil ||
		!strings.Contains(err.Error(), "already holds a live gallery") {
		t.Errorf("expected live-overwrite refusal, got %v", err)
	}

	out.Reset()
	query := append([]string{"query", "-db", db, "-task", "REST2", "-encoding", "RL", "-k", "3"}, size...)
	if err := runGallery(query, &out); err != nil {
		t.Fatalf("query source: %v", err)
	}
	srcAccuracy := out.String()[strings.Index(out.String(), "top-1:"):]

	out.Reset()
	liveQuery := append([]string{"query", "-db", liveDir, "-task", "REST2", "-encoding", "RL", "-k", "3"}, size...)
	if err := runGallery(liveQuery, &out); err != nil {
		t.Fatalf("query live: %v", err)
	}
	if !strings.Contains(out.String(), srcAccuracy) {
		t.Errorf("live query accuracy diverged from source:\nlive:\n%s\nwant tail: %q", out.String(), srcAccuracy)
	}

	out.Reset()
	if err := runGallery([]string{"compact", "-db", liveDir}, &out); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !strings.Contains(out.String(), "generation 0 -> 1") {
		t.Errorf("compact output: %q", out.String())
	}

	out.Reset()
	if err := runGallery([]string{"info", "-db", liveDir}, &out); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, want := range []string{"live directory (generation 1", "subjects:       6 (6 base, 0 overlay", "features:       40"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("live info output missing %q:\n%s", want, out.String())
		}
	}

	// Flag validation: exactly one of -from / -features.
	if err := runGallery([]string{"live", "-db", filepath.Join(dir, "x.live")}, &out); err == nil {
		t.Error("gallery live without -from or -features should fail")
	}
	if err := runGallery([]string{"compact", "-db", db}, &out); err == nil {
		t.Error("gallery compact on a non-live path should fail")
	}
}
