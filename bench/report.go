package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// metricDef names one metric and which direction is better. Source says
// where the number comes from:
// "client" (the load generator's own clock), "span" (the traced run),
// "probe" (a public function timed directly), "count" (a counter the
// program or the benchmark keeps) or "computed" (derived from sizes or
// from other metrics, never measured on its own).
type metricDef struct {
	name, unit, better, source string
}

// endToEnd is what a caller of the service sees, measured in the
// untraced phase. BENCHMARK.json carries each one's direction and
// bound; TestBenchmarkJSON keeps the two lists equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "client"},
	{"throughput_ops", "1/s", "higher", "client"},
	{"read_p50_ms", "ms", "lower", "client"},
	{"read_tail_ms", "ms", "lower", "client"},
	{"top1_share", "share", "higher", "count"},
	{"heap_after_setup_mb", "MB", "lower", "count"},
}

// perLayer is the traced run's and the probe phase's output. A metric
// whose layer is not in the workload's stack reads 0.
var perLayer = []metricDef{
	{"client.sent", "count", "higher", "count"},
	{"client.ok", "count", "higher", "count"},
	{"client.fail_4xx", "count", "lower", "count"},
	{"client.fail_5xx", "count", "lower", "count"},
	{"client.fail_transport", "count", "lower", "count"},
	{"client.fail_share", "share", "lower", "count"},
	{"client.marshal_us_p50", "us", "lower", "client"},
	{"client.self_ms_p50", "ms", "lower", "span"},
	{"client.enroll_ms_p50", "ms", "lower", "client"},
	{"client.enroll_ms_p95", "ms", "lower", "client"},
	{"client.delete_ms_p50", "ms", "lower", "client"},
	{"router.self_ms_p50", "ms", "lower", "span"},
	{"router.self_ms_p99", "ms", "lower", "span"},
	{"router.reads_replica_share", "share", "higher", "count"},
	{"router.proxy_errors", "count", "lower", "count"},
	{"serve.identify_self_ms_p50", "ms", "lower", "span"},
	{"serve.enroll_self_ms_p50", "ms", "lower", "span"},
	{"serve.batch_self_ms_p50", "ms", "lower", "span"},
	{"serve.inflight_rejects", "count", "lower", "count"},
	{"live.query_ms_p50", "ms", "lower", "span"},
	{"live.query_ms_p99", "ms", "lower", "span"},
	{"live.query_clear_ms_p50", "ms", "lower", "span"},
	{"live.query_overlap_write_ms_p50", "ms", "lower", "span"},
	{"live.enroll_ms_p50", "ms", "lower", "span"},
	{"live.enroll_ms_p95", "ms", "lower", "span"},
	{"live.delete_ms_p50", "ms", "lower", "span"},
	{"live.fsync_ms_p50", "ms", "lower", "probe"},
	{"live.overlay_ms_per_krecord", "ms", "lower", "probe"},
	{"live.wal_bytes_per_enroll", "B", "lower", "count"},
	{"live.compactions", "count", "lower", "count"},
	{"live.compact_ms_p50", "ms", "lower", "count"},
	{"live.compact_probe_ms", "ms", "lower", "probe"},
	{"live.mem_records_max", "count", "lower", "count"},
	{"shard.batch_scan_ms_p50", "ms", "lower", "span"},
	{"shard.scan_ms_serial", "ms", "lower", "probe"},
	{"shard.parallel_speedup", "x", "higher", "probe"},
	{"shard.scan_gflops", "GFLOP/s", "higher", "computed"},
	{"shard.scan_gbps", "GB/s", "higher", "computed"},
	{"shard.scan_fma_share", "share", "higher", "computed"},
	{"shard.scan_stream_share", "share", "higher", "computed"},
	{"shard.scan_roofline_share", "share", "higher", "computed"},
	{"shard.topk1_us_p50", "us", "lower", "probe"},
	{"shard.open_ms", "ms", "lower", "probe"},
	{"ivf.batch_scan_ms_p50", "ms", "lower", "span"},
	{"ivf.rankcells_us_p50", "us", "lower", "probe"},
	{"ivf.candidate_share", "share", "lower", "count"},
	{"ivf.recall_at_5", "share", "higher", "count"},
	{"ivf.build_s", "s", "lower", "probe"},
	{"gallery.normalize_us_p50", "us", "lower", "probe"},
	{"gallery.blocked_dots_gflops", "GFLOP/s", "higher", "probe"},
	{"linalg.dot_gflops", "GFLOP/s", "higher", "probe"},
	{"linalg.dot8_gflops", "GFLOP/s", "higher", "probe"},
	{"replicate.lag_records_p50", "count", "lower", "count"},
	{"replicate.lag_records_max", "count", "lower", "count"},
	{"replicate.catchup_ms", "ms", "lower", "client"},
	{"replicate.reconnects", "count", "lower", "count"},
	{"machine.stream_read_gbps", "GB/s", "higher", "probe"},
	{"machine.fma_gflops", "GFLOP/s", "higher", "probe"},
	{"machine.fsync_ms_p50", "ms", "lower", "probe"},
	{"process.cpu_s_per_kop", "s", "lower", "count"},
	{"process.allocs_per_op", "count", "lower", "count"},
	{"process.gc_pause_ms_total", "ms", "lower", "count"},
	{"trace.overhead_share", "share", "lower", "computed"},
	{"trace.accounted_share", "share", "higher", "computed"},
	{"trace.spans", "count", "higher", "count"},
}

// metricValue is one metric on the wire.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the last line a single-workload run prints.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// noFiniteValue stands in for a percentile that landed among failed
// requests: JSON has no infinity.
const noFiniteValue = 1e12

// render picks the listed metrics out of m, every one present: a metric
// the run did not produce reads 0.
func render(defs []metricDef, m metrics) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = noFiniteValue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// printMetrics lists metrics by name with unit and source.
func printMetrics(w io.Writer, defs []metricDef, m metrics) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s (%s)\n", d.name, m[d.name], d.unit, d.source)
	}
}

// environment is the header every result file carries: a number counts
// only with the machine it was measured on.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
	Commit     string `json:"commit"`
}

func readEnvironment(dataDir string) environment {
	env := environment{
		CPUModel:   "unknown",
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		DataDirFS:  filesystemOf(dataDir),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// filesystemOf names the filesystem type of the mount holding dir, from
// /proc/mounts (longest mount-point prefix wins).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]
		}
	}
	return fs
}

// benchmarkFile is BENCHMARK.json as far as the benchmark reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
