package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"regexp"
	"testing"
)

// runSmoke runs one workload at smoke scale in this process and returns
// its result line.
func runSmoke(t *testing.T, workload string, trace string) runOutput {
	t.Helper()
	dir := t.TempDir()
	var stdout bytes.Buffer
	err := run([]string{
		"--workload", workload, "--seed", "3", "--trace", trace, "--smoke",
		"--data-dir", filepath.Join(dir, "data"), "--out-dir", filepath.Join(dir, "out"),
	}, &stdout, io.Discard)
	if err != nil {
		t.Fatalf("%s --trace %s: %v", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var out runOutput
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", workload, trace, out.Correct, out.Attempted, out.Failed)
	}
	return out
}

// Every workload builds its stack, passes the bit-exact oracle, serves
// load without a failure, replays it traced and runs the probes; the
// traced run reports every per-layer metric and the layers its stack has
// report something.
func TestSmokeTraced(t *testing.T) {
	mustMeasure := map[string][]string{
		"read-1k":          {"client.self_ms_p50", "router.self_ms_p50", "serve.identify_self_ms_p50", "live.query_ms_p50", "live.fsync_ms_p50", "trace.accounted_share"},
		"mixed-1k":         {"client.enroll_ms_p50", "live.enroll_ms_p50", "serve.enroll_self_ms_p50", "router.reads_replica_share", "live.wal_bytes_per_enroll"},
		"batch-exact-100k": {"shard.batch_scan_ms_p50", "serve.batch_self_ms_p50", "shard.parallel_speedup", "shard.open_ms", "machine.fma_gflops"},
		"batch-ivf-100k":   {"ivf.batch_scan_ms_p50", "ivf.recall_at_5", "ivf.candidate_share", "ivf.build_s", "ivf.rankcells_us_p50"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := runSmoke(t, w.name, "1")
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(out.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if got, ok := out.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, got, ok, d.unit)
				}
			}
			for _, name := range mustMeasure[w.name] {
				if out.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on %s, want a measured value", name, out.Metrics[name].Value, w.name)
				}
			}
			if share := out.Metrics["trace.accounted_share"].Value; share < 0.8 || share > 1.2 {
				t.Errorf("trace.accounted_share = %v: layer medians do not add up to the client median", share)
			}
		})
	}
}

// The untraced run is what the driver gates on: every end-to-end metric,
// none of them zero.
func TestSmokeUntraced(t *testing.T) {
	out := runSmoke(t, "mixed-1k", "0")
	if len(out.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(out.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if got := out.Metrics[d.name]; got.Value <= 0 || got.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, got, d.unit)
		}
	}
}

// BENCHMARK.json and the benchmark must name the same workloads and
// metrics, within the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (why of %d chars)", i, got.Name, w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the benchmark %d + %d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(gotName, gotUnit, gotBetter string, d metricDef) {
		if gotName != d.name || gotUnit != d.unit || gotBetter != d.better {
			t.Errorf("BENCHMARK.json has %s (%s, %s), the benchmark %s (%s, %s)", gotName, gotUnit, gotBetter, d.name, d.unit, d.better)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q unit %q: outside the contract's limits or used twice", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		check(e.Name, e.Unit, e.Better, d)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		check(e.Name, e.Unit, e.Better, d)
	}
}
