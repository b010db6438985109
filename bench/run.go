package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupRuns is how often a run sets the stack up; setup_s is the median.
const setupRuns = 3

// runWorkload is set-up → oracle → warm-up → measured phase(s) →
// probes, and returns the result line.
func runWorkload(cfg options, w workload, log io.Writer) (*runOutput, error) {
	if cfg.smoke {
		w.subjects = min(w.subjects, 10000)
	}
	d := newDataset(cfg.seed)
	var rec *recorder
	if cfg.trace == 1 {
		rec = newRecorder()
	}
	m := metrics{}

	setups := setupRuns
	if cfg.smoke {
		setups = 1
	}
	var st *stack
	var setupS, openMS, buildS []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		t0 := time.Now()
		var err error
		if st, err = buildStack(w, d, dir, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		openMS, buildS = append(openMS, st.openMS), append(buildS, st.annBuildS)
	}
	defer st.close()
	m["setup_s"] = median(setupS)
	m["shard.open_ms"], m["ivf.build_s"] = median(openMS), median(buildS)
	fmt.Fprintf(log, "%s seed %d: set-up %.3fs (of %d: %.3v)\n", w.name, cfg.seed, m["setup_s"], setups, setupS)

	correct := true
	if err := checkOracle(st); err != nil {
		fmt.Fprintln(log, err)
		correct = false
	} else {
		fmt.Fprintf(log, "oracle: %d probes bit-equal to match.SimilarityMatrix + match.Predict\n", oracleProbes)
	}

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(st, newClientGen(d, w, i), rec)
	}
	warm := w.warmup / w.clients
	if cfg.smoke {
		warm = max(warm/200, 1)
	}
	if p := runPhase(clients, stopRule{ops: warm}); p.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", p.failSummary())
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["heap_after_setup_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	stop := stopRule{deadline: time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))}
	if cfg.opsScale > 0 {
		stop = stopRule{ops: max(int(float64(w.ops)*cfg.opsScale), 1)}
	}

	var p *phase
	if cfg.trace == 0 {
		p = runPhase(clients, stop)
		fmt.Fprintf(log, "untraced: %d requests in %.2fs, %s\n", p.attempted, p.wallS, p.failSummary())
		m["throughput_ops"] = p.throughput()
		m["read_p50_ms"] = p.pct(w.read, 50)
		m["read_tail_ms"] = p.pct(w.read, w.tailPct)
		m["top1_share"] = p.top1Share()
		printMetrics(log, endToEnd, m)
	} else {
		var err error
		if p, err = tracedRun(cfg, st, clients, rec, stop, m, log); err != nil {
			return nil, err
		}
		printMetrics(log, perLayer, m)
	}
	// A malformed answer is wrong output; on the exact workloads so is
	// any top-1 miss. The IVF index may miss, within its recall.
	minTop1 := 1.0
	if w.ann {
		minTop1 = 0.98
	}
	if p.fails[classWrong] > 0 || p.top1Share() < minTop1 {
		fmt.Fprintf(log, "answers: top-1 share %.4f (need %.2f), %d malformed\n", p.top1Share(), minTop1, p.fails[classWrong])
		correct = false
	}
	out := &runOutput{Correct: correct, Attempted: p.attempted, Failed: p.failed}
	if cfg.trace == 1 {
		out.Metrics = render(perLayer, m)
	} else {
		out.Metrics = render(endToEnd, m)
	}
	return out, nil
}

// processCounters are the process-wide costs read around a phase.
type processCounters struct {
	cpuS    float64
	mallocs uint64
	pauseNS uint64
}

func readProcess() processCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return processCounters{cpuS: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs}
}

// tracedRun is the measured part of a --trace 1 run: the traced replay,
// then the probes. It returns the replay's phase.
func tracedRun(cfg options, st *stack, clients []*client, rec *recorder, stop stopRule, m metrics, log io.Writer) (*phase, error) {
	w := st.w
	sm := startSampler(st)
	routerBefore := scrapeRouter(st)
	before := readProcess()
	stopWindows := rec.alternate()
	p := runPhase(clients, stop)
	stopWindows()
	lastAck := time.Now()
	after := readProcess()
	routerAfter := scrapeRouter(st)
	if ok := p.attempted - p.failed; ok > 0 {
		m["process.cpu_s_per_kop"] = (after.cpuS - before.cpuS) / float64(ok) * 1000
		m["process.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ok)
	}
	m["process.gc_pause_ms_total"] = float64(after.pauseNS-before.pauseNS) / 1e6
	fmt.Fprintf(log, "traced replay: %d requests in %.2fs (%d reads traced, %d untraced), %s\n",
		p.attempted, p.wallS, len(p.tracedRead), len(p.untracedRead), p.failSummary())

	if st.replica != nil {
		// Last acknowledged write → replica at the primary's sequence.
		for st.replica.Stats().Seq < st.primary.Stats().Seq && time.Since(lastAck) < 10*time.Second {
			time.Sleep(200 * time.Microsecond)
		}
		m["replicate.catchup_ms"] = msSince(lastAck)
		m["replicate.reconnects"] = float64(st.replica.Stats().Reconnects)
	}
	sm.stop(m)

	m["client.sent"] = float64(p.attempted)
	m["client.ok"] = float64(p.attempted - p.failed)
	m["client.fail_4xx"] = float64(p.fails[class4xx])
	m["client.fail_5xx"] = float64(p.fails[class5xx])
	m["client.fail_transport"] = float64(p.fails[classTransport])
	m["client.fail_share"] = float64(p.failed) / float64(max(p.attempted, 1))
	m["client.marshal_us_p50"] = p50(p.marshalUS)
	m["client.enroll_ms_p50"] = p.pct(opEnroll, 50)
	m["client.enroll_ms_p95"] = p.pct(opEnroll, 95)
	m["client.delete_ms_p50"] = p.pct(opDelete, 50)
	m["serve.inflight_rejects"] = float64(p.rejected)
	if reads := routerAfter.reads() - routerBefore.reads(); reads > 0 {
		m["router.reads_replica_share"] = (routerAfter.ReadsReplica - routerBefore.ReadsReplica) / reads
	}
	m["router.proxy_errors"] = routerAfter.ProxyErrors - routerBefore.ProxyErrors

	spans := rec.take()
	analyse(w, spans, m)
	if untraced := p50(p.untracedRead); untraced > 0 {
		m["trace.overhead_share"] = p50(p.tracedRead)/untraced - 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := writeTrace(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "wrote %d spans to %s\n", len(spans), path)

	sc := fullProbes
	if cfg.smoke {
		sc = smokeProbes
	}
	probeDir := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-probes", w.name, os.Getpid()))
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(probeDir)
	if err := runProbes(st, probeDir, sc, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return p, nil
}

// analyse turns the traced phase's spans into the span-sourced metrics.
// Self time is a span minus its children; the client, router and serve
// self times are taken over the workload's read requests, so that with
// the engine span they add up to the traced client median
// (trace.accounted_share is that sum over that median).
func analyse(w workload, spans []span, m metrics) {
	self := selfTimes(spans)
	read := opNames[w.read]
	var dur, selfOf = map[string][]float64{}, map[string][]float64{}
	var primaryReads, primaryWrites []span
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], s.ms())
		selfOf[s.Name] = append(selfOf[s.Name], self[s.ID])
		if s.Node == "primary" {
			switch s.Name {
			case "live.topk":
				primaryReads = append(primaryReads, s)
			case "live.enroll", "live.delete":
				primaryWrites = append(primaryWrites, s)
			}
		}
	}
	p := func(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), 0, q) }
	spanMS := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = s.ms()
		}
		return out
	}
	m["trace.spans"] = float64(len(spans))
	m["client.self_ms_p50"] = p(selfOf["client."+read], 50)
	m["router.self_ms_p50"] = p(selfOf["router."+read], 50)
	m["router.self_ms_p99"] = p(selfOf["router."+read], 99)
	m["serve.identify_self_ms_p50"] = p(selfOf["serve.identify"], 50)
	m["serve.enroll_self_ms_p50"] = p(selfOf["serve.enroll"], 50)
	m["serve.batch_self_ms_p50"] = p(selfOf["serve.batch"], 50)
	m["live.query_ms_p50"] = p(dur["live.topk"], 50)
	m["live.query_ms_p99"] = p(dur["live.topk"], 99)
	m["live.enroll_ms_p50"] = p(dur["live.enroll"], 50)
	m["live.enroll_ms_p95"] = p(dur["live.enroll"], 95)
	m["live.delete_ms_p50"] = p(dur["live.delete"], 50)
	clear, overlapped := splitByOverlap(primaryReads, primaryWrites)
	m["live.query_clear_ms_p50"] = p(spanMS(clear), 50)
	m["live.query_overlap_write_ms_p50"] = p(spanMS(overlapped), 50)
	engine := "live.topk"
	if w.read == opBatch {
		engine = "shard.queryall"
		layer := "shard.batch_scan_ms_p50"
		if w.ann {
			layer = "ivf.batch_scan_ms_p50"
		}
		m[layer] = p(dur[engine], 50)
	}
	if total := p(dur["client."+read], 50); total > 0 {
		m["trace.accounted_share"] = (m["client.self_ms_p50"] + m["router.self_ms_p50"] +
			m["serve."+read+"_self_ms_p50"] + p(dur[engine], 50)) / total
	}
}

// routerCounters are the router's own counters, scraped over HTTP.
type routerCounters struct {
	ReadsReplica float64 `json:"reads_replica"`
	ReadsPrimary float64 `json:"reads_primary_fallback"`
	ProxyErrors  float64 `json:"proxy_errors"`
}

func (c routerCounters) reads() float64 { return c.ReadsReplica + c.ReadsPrimary }

// scrapeRouter reads the router's /v1/metrics; a stack without a router
// reads zeros.
func scrapeRouter(st *stack) routerCounters {
	var c routerCounters
	if st.router == "" {
		return c
	}
	resp, err := http.Get(st.router + "/v1/metrics")
	if err != nil {
		return c
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&c) // zeros on a malformed document
	return c
}

// sampler reads the engines' own counters every 100 ms while a traced
// run's load is on: replication lag in records, overlay size, and each
// compaction's duration as it completes.
type sampler struct {
	st        *stack
	done      chan struct{}
	wg        sync.WaitGroup
	lag       []float64
	compactMS []float64
	memMax    int
	base      int64 // compactions before the load
}

func startSampler(st *stack) *sampler {
	s := &sampler{st: st, done: make(chan struct{})}
	if st.primary == nil {
		return s
	}
	s.base = st.primary.Stats().Compactions
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		seen := s.base
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
			}
			ps := st.primary.Stats()
			s.memMax = max(s.memMax, ps.MemRecords)
			if ps.Compactions > seen {
				seen = ps.Compactions
				s.compactMS = append(s.compactMS, float64(ps.LastCompactDuration)/1e6)
			}
			if st.replica != nil {
				s.lag = append(s.lag, float64(max(ps.Seq-st.replica.Stats().Seq, 0)))
			}
		}
	}()
	return s
}

// stop ends the sampling and reports what it saw.
func (s *sampler) stop(m metrics) {
	close(s.done)
	s.wg.Wait()
	if s.st.primary == nil {
		return
	}
	sort.Float64s(s.lag)
	m["replicate.lag_records_p50"] = p50(s.lag)
	m["replicate.lag_records_max"] = percentile(s.lag, 0, 100)
	m["live.compactions"] = float64(s.st.primary.Stats().Compactions - s.base)
	m["live.compact_ms_p50"] = median(s.compactMS)
	m["live.mem_records_max"] = float64(s.memMax)
}
