package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"brainprint/internal/attacker"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/replicate"
	"brainprint/internal/router"
	"brainprint/internal/serve"
)

// stack is one workload's system under test, built in this process from
// the public constructors, each HTTP tier on its own loopback listener.
type stack struct {
	w   workload
	d   *dataset
	url string // where clients send: the router, or serve when there is none

	store   *shard.Store       // the read-only store (batch-*) or the live base's source (*-1k)
	primary *live.Engine       // *-1k
	replica *replicate.Replica // mixed-1k
	router  string             // router base URL, "" without one

	// openMS and annBuildS are the set-up steps reported per layer.
	openMS, annBuildS float64

	closers []func()
}

// close tears the stack down in reverse build order: the replica before
// the servers, or its open log stream would hold the primary's listener
// open for the stream's idle window.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func (s *stack) onClose(fn func()) { s.closers = append(s.closers, fn) }

// listen serves a handler on a loopback listener, wrapped by the
// recorder when the run is traced.
func (s *stack) listen(rec *recorder, tier, node string, h http.Handler) string {
	if rec != nil {
		h = rec.wrap(tier, node, h)
	}
	srv := httptest.NewServer(h)
	s.onClose(srv.Close)
	return srv.URL
}

// baseGallery enrolls the workload's base subjects, in index order.
func baseGallery(d *dataset, n int) (*gallery.Gallery, error) {
	g := gallery.New(features)
	sub, fp := newSubjectRNG(), make([]float64, features)
	for i := 0; i < n; i++ {
		d.fingerprint(sub, i, fp)
		if err := g.Enroll(subjectID(i), fp); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// syncTree fsyncs every file under dir and the directories themselves:
// what set-up writes is on disk before load starts, so its writeback
// does not land in the measured phase.
func syncTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, _ os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		// Some filesystems refuse to fsync a directory; the files are
		// what matters here.
		_ = f.Sync()
		return f.Close()
	})
}

// buildStack is set-up from generated data to a serving stack. rec is
// nil for the untraced run, which then uses the bare handlers and
// engines.
func buildStack(w workload, d *dataset, dir string, rec *recorder) (_ *stack, err error) {
	s := &stack{w: w, d: d}
	s.onClose(func() { os.RemoveAll(dir) })
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g, err := baseGallery(d, w.subjects)
	if err != nil {
		return nil, err
	}
	mem, err := shard.FromGallery(g, shardCount, false)
	if err != nil {
		return nil, err
	}
	if w.read == opBatch {
		err = s.buildStatic(mem, dir, rec)
	} else {
		s.store = mem
		err = s.buildLive(dir, rec)
	}
	if err != nil {
		return nil, err
	}
	return s, s.firstRequest()
}

// buildStatic is the batch-* stack: serve over a store written with
// WriteFiles and re-opened with shard.Open, optionally IVF-indexed.
func (s *stack) buildStatic(mem *shard.Store, dir string, rec *recorder) error {
	manifest := filepath.Join(dir, "gallery.bpm")
	if err := mem.WriteFiles(manifest); err != nil {
		return err
	}
	if err := syncTree(dir); err != nil {
		return err
	}
	t0 := time.Now()
	store, err := shard.Open(manifest)
	if err != nil {
		return err
	}
	s.openMS = msSince(t0)
	s.store = store
	opts := []attacker.Option{attacker.WithTopK(topK)}
	if s.w.ann {
		t0 = time.Now()
		if err := store.BuildANN(context.Background(), 0, 1, 0); err != nil {
			return err
		}
		s.annBuildS = time.Since(t0).Seconds()
		opts = append(opts, attacker.WithANN(16))
	}
	var eng gallery.Engine = store
	if rec != nil {
		eng = &tracedStore{Store: store, rec: rec}
	}
	atk, err := attacker.New(eng, opts...)
	if err != nil {
		return err
	}
	srv, err := serve.New(atk, serve.Config{})
	if err != nil {
		return err
	}
	s.url = s.listen(rec, "serve", "", srv.Handler())
	return nil
}

// buildLive is the *-1k stack: router → serve → live engine, and on
// mixed-1k a WAL-shipping replica behind its own serve. The engine
// syncs every commit (NoSync stays false).
func (s *stack) buildLive(dir string, rec *recorder) error {
	opts := live.Options{}
	if s.w.mixed {
		opts.CompactAfter = compactAfter
	}
	primaryDir := filepath.Join(dir, "primary")
	eng, err := live.CreateFromStore(primaryDir, s.store, opts)
	if err != nil {
		return err
	}
	s.primary = eng
	s.onClose(func() { eng.Close() })
	if err := syncTree(primaryDir); err != nil {
		return err
	}
	var mutable gallery.Mutable = eng
	if rec != nil {
		mutable = &tracedLive{Engine: eng, rec: rec, node: "primary"}
	}
	atk, err := attacker.New(nil, attacker.WithMutableGallery(mutable), attacker.WithTopK(topK))
	if err != nil {
		return err
	}
	srv, err := serve.New(atk, serve.Config{Live: eng})
	if err != nil {
		return err
	}
	cfg := router.Config{Primary: s.listen(rec, "serve", "primary", srv.Handler())}
	if s.w.mixed {
		rep, err := replicate.Start(cfg.Primary, filepath.Join(dir, "replica"), replicate.Options{CompactAfter: compactAfter})
		if err != nil {
			return err
		}
		s.replica = rep
		s.onClose(func() { rep.Close() })
		var reader gallery.Engine = rep
		if rec != nil {
			reader = &tracedReplica{Replica: rep, rec: rec, node: "replica"}
		}
		ratk, err := attacker.New(reader, attacker.WithTopK(topK))
		if err != nil {
			return err
		}
		rsrv, err := serve.New(ratk, serve.Config{Replica: rep})
		if err != nil {
			return err
		}
		cfg.Replicas = []string{s.listen(rec, "serve", "replica", rsrv.Handler())}
	}
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		rt.Watch(ctx)
	}()
	s.onClose(func() {
		cancel()
		<-watched
	})
	s.router = s.listen(rec, "router", "", rt.Handler())
	s.url = s.router
	return nil
}

// firstRequest sends the workload's read request until it succeeds,
// which ends set-up: the router answers 503 until its first poll round
// has found the primary.
func (s *stack) firstRequest() error {
	gen := newClientGen(s.d, s.w, 0)
	c := newClient(s, gen, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		req := gen.next()
		for req.kind != s.w.read {
			req = gen.next()
		}
		res := c.do(&req)
		if res.class == classOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: no successful %s request within 10s (last: %s)", opNames[s.w.read], res.detail)
		}
		time.Sleep(time.Millisecond)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
