package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"brainprint/internal/core"
	"brainprint/internal/synth"
)

// cancelBudget is the wall-clock bound on a cancelled run: the 1s
// acceptance criterion normally, widened under the race detector whose
// ~10× instrumentation slowdown (plus CI contention) makes sub-second
// wall-clock assertions flaky without changing what is being proven —
// that in-flight chunks drain promptly after cancellation.
func cancelBudget() time.Duration {
	if raceEnabled {
		return 5 * time.Second
	}
	return time.Second
}

// smallHCP generates a small HCP-like cohort for registry tests.
func smallHCP(t *testing.T) *synth.HCPCohort {
	t.Helper()
	p := synth.DefaultHCPParams()
	p.Subjects = 8
	p.Regions = 30
	p.RestFrames = 120
	p.TaskFrames = 90
	c, err := synth.GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	return c
}

func smallADHD(t *testing.T) *synth.ADHDCohort {
	t.Helper()
	p := synth.DefaultADHDParams()
	p.Controls = 8
	p.Subtype1 = 5
	p.Subtype2 = 0
	p.Subtype3 = 4
	p.Regions = 36
	p.Frames = 120
	c, err := synth.GenerateADHD(p)
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	return c
}

func TestRunExperimentRegistry(t *testing.T) {
	cfg := core.DefaultAttackConfig()
	cfg.Features = 60
	ctx := context.Background()
	res, err := Run(ctx, "fig1", cfg, Input{HCP: smallHCP(t)})
	if err != nil {
		t.Fatalf("Run(fig1): %v", err)
	}
	if res.Render() == "" {
		t.Error("empty rendering")
	}
	if _, err := Run(ctx, "fig99", cfg, Input{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := Run(ctx, "fig1", cfg, Input{}); err == nil {
		t.Error("missing HCP cohort accepted")
	}
	if _, err := Run(ctx, "fig7", cfg, Input{}); err == nil {
		t.Error("missing ADHD cohort accepted")
	}
}

func TestRegistryShape(t *testing.T) {
	names := Names()
	want := []string{"fig1", "fig2", "fig5", "fig6", "table1", "fig7", "fig8", "fig9", "table2", "defense", "gallery-defense"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, e := range Experiments() {
		if e.Synopsis == "" {
			t.Errorf("experiment %q has no synopsis", e.Name)
		}
		if !e.NeedsHCP && !e.NeedsADHD && e.Name != "gallery-defense" {
			// gallery-defense synthesizes its own cohort; every other
			// experiment must declare at least one input cohort.
			t.Errorf("experiment %q declares no cohorts", e.Name)
		}
		if _, ok := Find(e.Name); !ok {
			t.Errorf("Find(%q) failed", e.Name)
		}
	}
}

// TestRunExperimentPreCancelled: a cancelled context never starts work.
func TestRunExperimentPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := Run(ctx, "table2", core.DefaultAttackConfig(), Input{HCP: smallHCP(t), ADHD: smallADHD(t), Trials: 50}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled abort took %v", elapsed)
	}
}

// TestRunExperimentMidRunCancel is the acceptance criterion: cancelling
// mid-run aborts a long experiment in well under a second, where the
// full grid (3 noise levels × 400 trials) would take minutes.
func TestRunExperimentMidRunCancel(t *testing.T) {
	cfg := core.DefaultAttackConfig()
	cfg.Features = 60
	cfg.Parallelism = 2
	in := Input{HCP: smallHCP(t), ADHD: smallADHD(t), Trials: 400, Seed: 3}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, "table2", cfg, in)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if budget := cancelBudget(); elapsed > budget {
		t.Fatalf("mid-run cancel took %v, want < %v", elapsed, budget)
	}
}
