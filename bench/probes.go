package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
	"brainprint/internal/stats"
)

// The probe phase: public functions of single layers timed directly,
// after the load has stopped, plus the two machine ceilings every scan
// lane is stated against. Operation and byte counts of the lanes are
// computed from sizes (n × features × probes), not measured.

// probeScale sizes the probes; smoke runs use a fraction.
type probeScale struct {
	streamMB   int // buffer for the streaming-read ceiling, well past the last-level cache
	kernelIter int // calls per kernel timing
	reps       int // repetitions whose median or best is reported
	overlay    int // overlay size for the live overlay probe
	fsyncs     int
	recall     int // probes in the IVF recall sample
	// scanRecords, over the store size, is how many batched scans are
	// timed: 4 on a 100k store, 400 on 1k.
	scanRecords int
}

var (
	fullProbes  = probeScale{streamMB: 256, kernelIter: 400_000, reps: 5, overlay: 2000, fsyncs: 200, recall: 256, scanRecords: 400_000}
	smokeProbes = probeScale{streamMB: 8, kernelIter: 2_000, reps: 2, overlay: 100, fsyncs: 10, recall: 32, scanRecords: 20_000}
)

// sink keeps results alive so the compiler cannot drop a timed loop.
var sink float64

// timeCalls runs fn n times and returns each call's duration in µs,
// sorted.
func timeCalls(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(out)
	return out
}

// onAllCores runs fn once per core at the same time and returns the
// wall time.
func onAllCores(fn func(worker, workers int)) time.Duration {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, workers)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// streamReadGBps is the streaming-read ceiling: every core sums its
// share of a buffer far larger than the caches; the best repetition
// counts, a ceiling being what the machine can do.
func streamReadGBps(sc probeScale) float64 {
	buf := make([]float64, sc.streamMB<<20/8)
	for i := range buf {
		buf[i] = 1
	}
	best := 0.0
	for r := 0; r < sc.reps; r++ {
		sums := make([]float64, runtime.GOMAXPROCS(0))
		d := onAllCores(func(w, workers int) {
			part := buf[w*len(buf)/workers : (w+1)*len(buf)/workers]
			var a0, a1, a2, a3 float64
			for i := 0; i+4 <= len(part); i += 4 {
				a0 += part[i]
				a1 += part[i+1]
				a2 += part[i+2]
				a3 += part[i+3]
			}
			sums[w] = a0 + a1 + a2 + a3
		})
		sink += sums[0]
		best = max(best, float64(len(buf)*8)/d.Seconds()/1e9)
	}
	return best
}

// fmaGFLOPs is the arithmetic ceiling for pure-go scalar code: every
// core runs eight independent multiply-add chains out of registers.
func fmaGFLOPs(sc probeScale) float64 {
	iters := sc.kernelIter * 50
	best := 0.0
	for r := 0; r < sc.reps; r++ {
		sums := make([]float64, runtime.GOMAXPROCS(0))
		d := onAllCores(func(w, _ int) {
			x, y := 0.999999, 1e-9
			a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
			for i := 0; i < iters; i++ {
				a0 = a0*x + y
				a1 = a1*x + y
				a2 = a2*x + y
				a3 = a3*x + y
				a4 = a4*x + y
				a5 = a5*x + y
				a6 = a6*x + y
				a7 = a7*x + y
			}
			sums[w] = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		})
		sink += sums[0]
		best = max(best, float64(2*8*iters*len(sums))/d.Seconds()/1e9)
	}
	return best
}

// fsyncMsP50 is the floor under a durable commit: a 900-byte append (a
// 100-feature enroll record is about that) plus fsync, in the data dir.
func fsyncMsP50(dir string, sc probeScale) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rec := make([]byte, 900)
	var ferr error
	us := timeCalls(sc.fsyncs, func() {
		if _, err := f.Write(rec); err != nil {
			ferr = err
		}
		if err := f.Sync(); err != nil {
			ferr = err
		}
	})
	return p50(us) / 1e3, ferr
}

// kernelGFLOPs times fn, which performs flops floating-point operations
// per call, and returns the median rate over the repetitions.
func kernelGFLOPs(sc probeScale, iters int, flops float64, fn func()) float64 {
	rates := make([]float64, sc.reps)
	for r := range rates {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		rates[r] = flops * float64(iters) / time.Since(t0).Seconds() / 1e9
	}
	return median(rates)
}

// probeMatrix draws count probes as a features×count matrix plus the
// rows themselves.
func probeMatrix(st *stack, count int) (*linalg.Matrix, [][]float64) {
	gen := newClientGen(st.d, st.w, -2)
	m, rows := linalg.NewMatrix(features, count), make([][]float64, count)
	for j := range rows {
		_, rows[j] = gen.probe()
		m.SetCol(j, rows[j])
	}
	return m, rows
}

// runProbes fills in every probe metric that applies to the stack.
func runProbes(st *stack, dir string, sc probeScale, m metrics) error {
	ctx := context.Background()
	stream, fma := streamReadGBps(sc), fmaGFLOPs(sc)
	m["machine.stream_read_gbps"], m["machine.fma_gflops"] = stream, fma
	fsync, err := fsyncMsP50(dir, sc)
	if err != nil {
		return fmt.Errorf("fsync probe: %w", err)
	}
	m["machine.fsync_ms_p50"] = fsync

	// Kernel ceilings on cache-resident data: 1k records of 100 features
	// are 800 KB.
	small, err := baseGallery(st.d, 1000)
	if err != nil {
		return err
	}
	batch, rows := probeMatrix(st, batchSize)
	zps := make([][]float64, batchSize)
	for j := range zps {
		zps[j] = append([]float64(nil), rows[j]...)
		stats.ZScore(zps[j])
	}
	rec := func(i int) []float64 { return small.Fingerprint(i) }
	m["linalg.dot_gflops"] = kernelGFLOPs(sc, sc.kernelIter, 2*features, func() { sink += linalg.Dot(rec(0), zps[0]) })
	m["linalg.dot8_gflops"] = kernelGFLOPs(sc, sc.kernelIter/8, 8*2*features, func() {
		s0, _, _, _, _, _, _, _ := linalg.Dot8(rec(0), rec(1), rec(2), rec(3), rec(4), rec(5), rec(6), rec(7), zps[0])
		sink += s0
	})
	bk := small.Blocked()
	outs := make([][]float64, batchSize)
	for j := range outs {
		outs[j] = make([]float64, bk.Len()+gallery.ScanLanes)
	}
	// The kernel accumulates into outs; the sums are never read, so they
	// are not cleared between calls.
	m["gallery.blocked_dots_gflops"] = kernelGFLOPs(sc, max(sc.kernelIter/2000, 1), float64(2*bk.Len()*features*batchSize),
		func() { bk.DotsF64Batch(0, bk.Len(), zps, outs) })
	var nerr error
	m["gallery.normalize_us_p50"] = p50(timeCalls(sc.kernelIter/100, func() {
		for i := 0; i < 100; i++ {
			if _, err := small.Normalize(rows[0]); err != nil {
				nerr = err
			}
		}
	})) / 100
	if nerr != nil {
		return nerr
	}

	// One probe against 1k records, the engine call under read-1k.
	store1k, err := shard.FromGallery(small, shardCount, false)
	if err != nil {
		return err
	}
	var qerr error
	m["shard.topk1_us_p50"] = p50(timeCalls(sc.kernelIter/100, func() {
		if _, err := store1k.TopKCtx(ctx, rows[0], topK, 0); err != nil {
			qerr = err
		}
	}))
	if qerr != nil {
		return qerr
	}

	if err := probeScan(ctx, st, sc, batch, stream, fma, m); err != nil {
		return err
	}
	if st.w.ann {
		if err := probeIVF(ctx, st, sc, m); err != nil {
			return err
		}
	}
	if st.primary != nil {
		if err := probeLive(ctx, st, dir, sc, rows[0], m); err != nil {
			return err
		}
	}
	return nil
}

// probeScan times the exact batched scan of the workload's own store at
// parallelism 1 and 0 and states it against both ceilings. The scan
// reads every record once per batch and does two operations per feature
// per probe: 2·16/8 = 4 operations per byte.
func probeScan(ctx context.Context, st *stack, sc probeScale, batch *linalg.Matrix, stream, fma float64, m metrics) error {
	store := st.store
	if store.ANNProbe() > 0 {
		// No request is in flight during the probe phase, so the knob
		// may be turned.
		if err := store.SetANNProbe(0); err != nil {
			return err
		}
		defer store.SetANNProbe(16)
	}
	reps := max(sc.reps, sc.scanRecords/store.Len())
	var qerr error
	scan := func(parallelism int) float64 {
		return p50(timeCalls(reps, func() {
			if _, err := store.QueryAllCtx(ctx, batch, topK, parallelism); err != nil {
				qerr = err
			}
		})) / 1e3
	}
	serial, par := scan(1), scan(0)
	if qerr != nil {
		return qerr
	}
	n := float64(store.Len())
	gflops := 2 * n * features * batchSize / (par / 1e3) / 1e9
	gbps := n * features * 8 / (par / 1e3) / 1e9
	m["shard.scan_ms_serial"] = serial
	m["shard.parallel_speedup"] = serial / par
	m["shard.scan_gflops"] = gflops
	m["shard.scan_gbps"] = gbps
	m["shard.scan_fma_share"] = gflops / fma
	m["shard.scan_stream_share"] = gbps / stream
	m["shard.scan_roofline_share"] = gflops / min(fma, stream*2*batchSize/8)
	return nil
}

// probeIVF measures the index layer: cell ranking, the share of records
// the probed cells hold, and recall against the exact scan of the same
// store.
func probeIVF(ctx context.Context, st *stack, sc probeScale, m metrics) error {
	store, idx := st.store, st.store.ANNIndex()
	sample, rows := probeMatrix(st, sc.recall)
	zp := append([]float64(nil), rows[0]...)
	stats.ZScore(zp)
	m["ivf.rankcells_us_p50"] = p50(timeCalls(sc.kernelIter/100, func() { sink += float64(idx.RankCells(zp, 16)[0]) }))

	postings := 0
	for _, row := range rows {
		z := append([]float64(nil), row...)
		stats.ZScore(z)
		for _, c := range idx.RankCells(z, 16) {
			for si := 0; si < idx.Shards(); si++ {
				postings += len(idx.Postings(si, c))
			}
		}
	}
	m["ivf.candidate_share"] = float64(postings) / float64(len(rows)*store.Len())

	approx, err := store.QueryAllCtx(ctx, sample, topK, 0)
	if err != nil {
		return err
	}
	if err := store.SetANNProbe(0); err != nil {
		return err
	}
	exact, err := store.QueryAllCtx(ctx, sample, topK, 0)
	if err != nil {
		return err
	}
	if err := store.SetANNProbe(16); err != nil {
		return err
	}
	found := 0
	for j := range exact {
		want := make(map[string]bool, topK)
		for _, c := range exact[j] {
			want[c.ID] = true
		}
		for _, c := range approx[j] {
			if want[c.ID] {
				found++
			}
		}
	}
	m["ivf.recall_at_5"] = float64(found) / float64(topK*len(exact))
	return nil
}

// probeLive measures the write path of a live engine on scratch copies
// of the workload's base: what the fsync costs (a syncing engine against
// a NoSync one on the same records), what an overlay costs a query, the
// log bytes per enroll, and one compaction.
func probeLive(ctx context.Context, st *stack, dir string, sc probeScale, probe []float64, m metrics) error {
	open := func(name string, noSync bool) (*live.Engine, error) {
		return live.CreateFromStore(filepath.Join(dir, name), st.store, live.Options{NoSync: noSync})
	}
	synced, err := open("probe-sync", false)
	if err != nil {
		return err
	}
	defer synced.Close()
	loose, err := open("probe-nosync", true)
	if err != nil {
		return err
	}
	defer loose.Close()

	var perr error
	query := func() float64 {
		return p50(timeCalls(sc.kernelIter/100, func() {
			if _, err := loose.TopKCtx(ctx, probe, topK, 0); err != nil {
				perr = err
			}
		}))
	}
	sub, fp, next := newSubjectRNG(), make([]float64, features), 0
	enroll := func(e *live.Engine) func() {
		return func() {
			st.d.fingerprint(sub, 50_000_000+next, fp)
			if err := e.Enroll(fmt.Sprintf("p%07d", next), fp); err != nil {
				perr = err
			}
			next++
		}
	}
	bare := query()
	walBefore := synced.Stats().WALBytes
	withSync := timeCalls(sc.fsyncs, enroll(synced))
	without := timeCalls(sc.overlay, enroll(loose))
	loaded := query()
	t0 := time.Now()
	if err := loose.Compact(); err != nil {
		return err
	}
	m["live.compact_probe_ms"] = msSince(t0)
	if perr != nil {
		return perr
	}
	m["live.fsync_ms_p50"] = (p50(withSync) - p50(without)) / 1e3
	m["live.overlay_ms_per_krecord"] = (loaded - bare) / 1e3 / (float64(sc.overlay) / 1000)
	m["live.wal_bytes_per_enroll"] = float64(synced.Stats().WALBytes-walBefore) / float64(sc.fsyncs)
	return nil
}
