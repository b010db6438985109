// Package serve exposes a loaded fingerprint gallery as an HTTP/JSON
// identification service — the serving surface of the attacker session
// API. The paper's threat model is enrollment-once, query-many: an
// adversary (or, defensively, a data steward auditing re-identification
// risk before release) holds a gallery of known subjects and needs to
// score a stream of anonymized probes against it. The service wraps an
// attacker.Attacker and answers:
//
//	POST /v1/identify        one probe  → ranked top-k candidates
//	POST /v1/identify/batch  many probes → per-probe rankings
//	                         (+ optional Hungarian assignment)
//	POST /v1/identify/stream NDJSON probe stream → NDJSON rankings in
//	                         completion order
//	GET  /v1/gallery         gallery metadata and enrolled IDs
//	GET  /v1/metrics         per-endpoint request counters/latency
//	GET  /healthz            liveness + gallery summary
//
// A server over a live gallery additionally mounts the replication
// surface (GET /v1/replicate/{state,file,wal} — see internal/replicate)
// so read replicas can bootstrap and tail its write-ahead log, and a
// server fronting a replica reports replication lag in /healthz and
// /v1/metrics.
//
// Every request runs under a per-request timeout (the identification
// sweeps underneath are context-aware, so a slow request is truly
// aborted, not abandoned), concurrent requests are bounded by an
// in-flight semaphore, and scores are bit-identical to the library's
// offline pipeline at any parallelism.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"brainprint/internal/defense"

	"brainprint/internal/attacker"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/replicate"
)

// Config tunes the HTTP service.
type Config struct {
	// Addr is the listen address (default 127.0.0.1:7311 — loopback:
	// the gallery is sensitive; expose it deliberately, not by default).
	Addr string
	// RequestTimeout bounds each request's identification work
	// (default 30s). Exceeding it aborts the sweep and returns 504.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served identification requests
	// (default 4× the worker count); excess requests get 503 rather
	// than queueing without bound.
	MaxInflight int
	// MaxBatch bounds the probe count of one batch request
	// (default 4096).
	MaxBatch int
	// MaxBodyBytes bounds request bodies (default 256 MiB, enough for
	// a paper-scale raw batch).
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown (default 10s): on cancel,
	// streaming responses — the identify stream and the replication log
	// stream — are told to drain, and everything in flight gets this
	// long to finish before the remaining connections are cut.
	DrainTimeout time.Duration
	// Live, when the served gallery is a live engine, mounts the
	// primary-side replication surface (GET /v1/replicate/*) over it;
	// nil leaves replication unmounted.
	Live *live.Engine
	// Replica, when the server fronts a WAL-shipping read replica,
	// feeds replication lag into /healthz and /v1/metrics (and marks
	// health degraded while disconnected from the primary); nil
	// otherwise.
	Replica *replicate.Replica
}

// withDefaults resolves zero values.
func (c Config) withDefaults(parallelism int) Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7311"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * parallel.Workers(parallelism)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// endpointMetrics are the per-endpoint counters exposed at /v1/metrics.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	micros   atomic.Int64 // summed wall time of finished requests
}

// observe records one finished request.
func (m *endpointMetrics) observe(start time.Time, failed bool) {
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	m.micros.Add(time.Since(start).Microseconds())
}

// snapshot renders the counters for the metrics endpoint.
func (m *endpointMetrics) snapshot() map[string]any {
	n := m.requests.Load()
	out := map[string]any{
		"requests": n,
		"errors":   m.errors.Load(),
	}
	if n > 0 {
		out["avg_latency_ms"] = float64(m.micros.Load()) / float64(n) / 1000
	}
	return out
}

// Server is the HTTP identification service over one attacker session.
type Server struct {
	atk     *attacker.Attacker
	cfg     Config
	started time.Time

	source *replicate.Source // replication mount (nil unless cfg.Live or cfg.Replica)

	// The server's role can change at runtime: POST /v1/promote flips a
	// replica into a writable primary, POST /v1/demote fences a primary
	// out of write mode. roleMu guards the transition; the hot paths
	// take the read side once per request.
	roleMu     sync.RWMutex
	mutable    gallery.Mutable    // non-nil only while the server accepts writes
	replica    *replicate.Replica // non-nil only while the server follows a primary
	fenced     bool               // true once demoted: writes refused for good
	promotions atomic.Int64
	demotions  atomic.Int64

	inflight chan struct{}
	draining chan struct{} // closed once, when graceful shutdown begins

	mIdentify  endpointMetrics
	mBatch     endpointMetrics
	mStream    endpointMetrics
	mGallery   endpointMetrics
	mHealth    endpointMetrics
	mEnroll    endpointMetrics
	mDelete    endpointMetrics
	mReplicate endpointMetrics
	mControl   endpointMetrics
}

// New builds a service over a session with a non-empty gallery. A
// session built WithMutableGallery additionally serves the write
// endpoints (POST /v1/enroll, DELETE /v1/subjects/{id}) — and may
// start empty, since records can arrive online; on a read-only session
// those endpoints answer 405.
func New(atk *attacker.Attacker, cfg Config) (*Server, error) {
	if atk == nil {
		return nil, fmt.Errorf("serve: nil attacker session")
	}
	if atk.Gallery().Len() == 0 && atk.Mutable() == nil {
		return nil, fmt.Errorf("serve: session has no enrolled gallery")
	}
	cfg = cfg.withDefaults(atk.Parallelism())
	s := &Server{
		atk:      atk,
		mutable:  atk.Mutable(),
		cfg:      cfg,
		replica:  cfg.Replica,
		started:  time.Now(),
		inflight: make(chan struct{}, cfg.MaxInflight),
		draining: make(chan struct{}),
	}
	switch {
	case cfg.Live != nil:
		s.source = replicate.NewSource(cfg.Live)
	case cfg.Replica != nil:
		// A replica re-exports the replication surface over its own
		// engine: downstream replicas may chain off it, and after a
		// promotion the surface keeps serving without a restart. The
		// provider indirection follows the replica's engine across
		// re-bootstrap swaps.
		s.source = replicate.NewSourceFunc(cfg.Replica.Engine)
	}
	return s, nil
}

// Writable reports whether the server accepts online mutations.
func (s *Server) Writable() bool { return s.writeSurface() != nil }

// writeSurface reads the current mutable gallery under the role lock.
func (s *Server) writeSurface() gallery.Mutable {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.mutable
}

// replicaRef reads the current replica handle under the role lock.
func (s *Server) replicaRef() *replicate.Replica {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.replica
}

// Role names the server's current position in a replicated topology:
// "primary" (accepting writes), "replica" (tailing a primary),
// "fenced" (demoted out of write mode to prevent split-brain), or
// "static" (a read-only server over an immutable store).
func (s *Server) Role() string {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	switch {
	case s.mutable != nil:
		return "primary"
	case s.replica != nil:
		return "replica"
	case s.fenced:
		return "fenced"
	}
	return "static"
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.cfg.Addr }

// Handler returns the service's routing table; exposed so tests can
// drive the full stack through httptest without a socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/identify", s.handleIdentify)
	mux.HandleFunc("POST /v1/identify/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/identify/stream", s.handleIdentifyStream)
	if s.source != nil {
		mux.HandleFunc("GET "+replicate.PathState, s.observeReplicate(s.source.ServeState))
		mux.HandleFunc("GET "+replicate.PathFile, s.observeReplicate(s.source.ServeFile))
		mux.HandleFunc("GET "+replicate.PathWAL, s.observeReplicate(func(w http.ResponseWriter, r *http.Request) {
			s.source.ServeWAL(w, r, s.draining)
		}))
	}
	mux.HandleFunc("GET /v1/gallery", s.handleGallery)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// The write endpoints are always routed; on a read-only server they
	// answer 405 so clients can tell "wrong server mode" (405) apart
	// from "no such route" (404).
	mux.HandleFunc("POST /v1/enroll", s.handleEnroll)
	mux.HandleFunc("DELETE /v1/subjects/{id}", s.handleDelete)
	// Topology control: promotion, demotion, and upstream repoint (see
	// promote.go). Routed unconditionally for the same 405-vs-404
	// legibility as the write endpoints.
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.HandleFunc("POST /v1/demote", s.handleDemote)
	mux.HandleFunc("POST /v1/repoint", s.handleRepoint)
	return mux
}

// ListenAndServe runs the service until ctx is cancelled, then shuts
// down gracefully: the drain signal ends streaming responses at their
// next frame boundary, and everything in flight gets DrainTimeout to
// finish (request contexts deliberately do not descend from ctx —
// cancelling the server must not abort work already accepted; the
// per-request timeout still bounds it). Connections that outlive the
// drain window are cut so shutdown stays bounded. It returns nil on a
// clean shutdown, and — because the drain signal fires once — serves
// at most once per Server.
func (s *Server) ListenAndServe(ctx context.Context) error {
	srv := &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Bound the whole read, not just headers: a client trickling a
		// body can otherwise hold a connection (and, once admitted, an
		// in-flight slot) indefinitely.
		ReadTimeout: s.cfg.RequestTimeout + 30*time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		close(s.draining)
		shctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			_ = srv.Close()
			return err
		}
		return nil
	}
}

// ---- request/response schema ----

// candidateJSON is one ranked identification hypothesis on the wire.
type candidateJSON struct {
	Index int     `json:"index"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

func toJSON(cands []gallery.Candidate) []candidateJSON {
	out := make([]candidateJSON, len(cands))
	for i, c := range cands {
		out[i] = candidateJSON{Index: c.Index, ID: c.ID, Score: c.Score}
	}
	return out
}

type identifyRequest struct {
	// ID is an opaque caller label echoed back.
	ID string `json:"id,omitempty"`
	// Probe is the fingerprint vector (gallery-space, or raw when the
	// gallery carries a feature index).
	Probe []float64 `json:"probe"`
	// K overrides the session's candidate count (optional).
	K int `json:"k,omitempty"`
}

type identifyResponse struct {
	ID         string          `json:"id,omitempty"`
	Candidates []candidateJSON `json:"candidates"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

type batchRequest struct {
	IDs    []string    `json:"ids,omitempty"`
	Probes [][]float64 `json:"probes"`
	K      int         `json:"k,omitempty"`
	// Assignment requests the optimal one-to-one matching (requires as
	// many probes as enrolled subjects).
	Assignment bool `json:"assignment,omitempty"`
}

type batchResponse struct {
	IDs        []string          `json:"ids,omitempty"`
	Results    [][]candidateJSON `json:"results"`
	Assignment []int             `json:"assignment,omitempty"`
	ElapsedMS  float64           `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

// acquire reserves an in-flight slot or fails fast with 503. Handlers
// call it only after the request body is fully decoded and validated,
// so a slow-reading client cannot pin a slot while it trickles bytes.
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server at capacity"})
		return false
	}
}

func (s *Server) release() { <-s.inflight }

// requestCtx derives the per-request working context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

func (s *Server) handleIdentify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.mIdentify.observe(start, failed) }()

	var req identifyRequest
	if !decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Probe) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing probe vector"})
		return
	}
	k, ok := s.resolveK(w, req.K)
	if !ok {
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	cands, err := s.atk.IdentifyTopK(ctx, req.Probe, k)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	failed = false
	writeJSON(w, http.StatusOK, identifyResponse{
		ID:         req.ID,
		Candidates: toJSON(cands),
		ElapsedMS:  msSince(start),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.mBatch.observe(start, failed) }()

	var req batchRequest
	if !decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Probes) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing probes"})
		return
	}
	if len(req.Probes) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("batch of %d probes exceeds limit %d", len(req.Probes), s.cfg.MaxBatch)})
		return
	}
	if req.IDs != nil && len(req.IDs) != len(req.Probes) {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("%d ids for %d probes", len(req.IDs), len(req.Probes))})
		return
	}
	probes, err := probesMatrix(req.Probes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	k, ok := s.resolveK(w, req.K)
	if !ok {
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	batch, err := s.atk.IdentifyBatchTopK(ctx, probes, k, req.Assignment)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := batchResponse{
		IDs:        req.IDs,
		Results:    make([][]candidateJSON, len(batch.Ranked)),
		Assignment: batch.Assignment,
	}
	for j, top := range batch.Ranked {
		resp.Results[j] = toJSON(top)
	}
	failed = false
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// streamProbeJSON is one NDJSON line of the identify-stream request.
type streamProbeJSON struct {
	// ID is an opaque caller label echoed back on the matching result
	// line (results arrive in completion order, not submission order).
	ID string `json:"id,omitempty"`
	// Probe is the fingerprint vector.
	Probe []float64 `json:"probe"`
}

// streamResultJSON is one NDJSON line of the identify-stream response.
type streamResultJSON struct {
	ID         string          `json:"id,omitempty"`
	Candidates []candidateJSON `json:"candidates,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// handleIdentifyStream serves POST /v1/identify/stream: the request
// body is a stream of NDJSON probe lines, the response a stream of
// NDJSON result lines in completion order, flushed per line — results
// start flowing before the request body ends, so a load generator can
// keep one connection saturated. The stream holds a single in-flight
// slot for its whole life and is bounded by the server's read timeout,
// not the per-request timeout; a graceful shutdown ends it at the next
// line boundary.
func (s *Server) handleIdentifyStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.mStream.observe(start, failed) }()

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	// Full duplex: without this the HTTP/1.1 server drains the whole
	// request body before releasing any response bytes, deadlocking a
	// client that paces its probes by reading results. Best-effort —
	// recorders and HTTP/2 don't need it.
	_ = http.NewResponseController(w).EnableFullDuplex()
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.draining:
			cancel()
		case <-stop:
		}
	}()

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	probes := make(chan attacker.Probe)
	var feedErr error // published by close(probes), read after results drain
	go func() {
		defer close(probes)
		for {
			var req streamProbeJSON
			if err := dec.Decode(&req); err != nil {
				if err != io.EOF && ctx.Err() == nil {
					feedErr = err
				}
				return
			}
			if len(req.Probe) == 0 {
				feedErr = fmt.Errorf("probe %q: missing probe vector", req.ID)
				return
			}
			select {
			case probes <- attacker.Probe{ID: req.ID, Vector: req.Probe}:
			case <-ctx.Done():
				return
			}
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for res := range s.atk.IdentifyStream(ctx, probes) {
		line := streamResultJSON{ID: res.Probe.ID}
		if res.Err != nil {
			line.Error = res.Err.Error()
		} else {
			line.Candidates = toJSON(res.Candidates)
		}
		if enc.Encode(&line) != nil {
			return // client gone; cancel (deferred) stops the workers
		}
		flusher.Flush()
	}
	if feedErr != nil {
		// The stream dies at the first bad line: report it as the final
		// result line (the status is already on the wire).
		_ = enc.Encode(&streamResultJSON{Error: "bad request line: " + feedErr.Error()})
		return
	}
	failed = false
}

// observeReplicate folds the replication endpoints into one metrics
// bucket — operators care about stream pressure, not per-path splits.
func (s *Server) observeReplicate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { s.mReplicate.observe(start, false) }()
		h(w, r)
	}
}

// ---- write endpoints ----

// enrollRequest is the POST /v1/enroll body.
type enrollRequest struct {
	// ID is the subject ID to enroll under (required, unique).
	ID string `json:"id"`
	// Fingerprint is the subject's fingerprint vector (gallery-space,
	// or raw when the gallery carries a feature index).
	Fingerprint []float64 `json:"fingerprint"`
}

// enrollResponse confirms one online enrollment.
type enrollResponse struct {
	ID        string  `json:"id"`
	Subjects  int     `json:"subjects"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// deleteResponse confirms one online deletion.
type deleteResponse struct {
	ID       string `json:"id"`
	Subjects int    `json:"subjects"`
}

// requireWritable answers 405 on a read-only server and returns the
// write surface to use otherwise — resolved once, so a concurrent
// demotion cannot yank it mid-handler.
func (s *Server) requireWritable(w http.ResponseWriter) (gallery.Mutable, bool) {
	s.roleMu.RLock()
	m, fenced := s.mutable, s.fenced
	s.roleMu.RUnlock()
	if m == nil {
		msg := "server is read-only (start with -writable over a live gallery)"
		if fenced {
			msg = "server was demoted (fenced); writes refused to prevent split-brain — restart with -replica-of to rejoin"
		}
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: msg})
		return nil, false
	}
	return m, true
}

func (s *Server) handleEnroll(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.mEnroll.observe(start, failed) }()

	m, ok := s.requireWritable(w)
	if !ok {
		return
	}
	var req enrollRequest
	if !decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.ID == "" || len(req.ID) > gallery.MaxIDLen {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("subject id must be 1..%d bytes", gallery.MaxIDLen)})
		return
	}
	if len(req.Fingerprint) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing fingerprint vector"})
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	if err := m.Enroll(req.ID, req.Fingerprint); err != nil {
		writeMutationError(w, err)
		return
	}
	failed = false
	writeJSON(w, http.StatusCreated, enrollResponse{
		ID:        req.ID,
		Subjects:  m.Len(),
		ElapsedMS: msSince(start),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.mDelete.observe(start, failed) }()

	m, ok := s.requireWritable(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if !s.acquire(w) {
		return
	}
	defer s.release()
	if err := m.Delete(id); err != nil {
		writeMutationError(w, err)
		return
	}
	failed = false
	writeJSON(w, http.StatusOK, deleteResponse{ID: id, Subjects: m.Len()})
}

// writeMutationError maps write-path failures to HTTP statuses:
// duplicate enrollment → 409, unknown subject → 404, dimension and
// validation problems → 400 — and anything else (a write-ahead-log
// I/O failure, a closed engine) → 500/503: those are server faults,
// and labelling them 400 would tell clients and retry middleware the
// request itself was permanently bad.
func writeMutationError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, gallery.ErrDuplicateID):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case errors.Is(err, gallery.ErrUnknownID):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	case errors.Is(err, gallery.ErrDimMismatch):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.Is(err, live.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// shardedEngine is the optional topology surface a sharded store
// (internal/gallery/shard.Store) adds on top of gallery.Engine; the
// service reports it when present without depending on the concrete
// type.
type shardedEngine interface {
	Shards() int
	LoadedShards() int
}

// defendedEngine is the optional anonymization surface a defended
// engine (sharded store or live engine) adds: the descriptor of the
// pipeline its released vectors went through. The service reports it
// on /healthz and /v1/gallery so clients can tell a defended release
// from a raw one.
type defendedEngine interface {
	Defense() *defense.Descriptor
}

// engineTopology builds the topology block /healthz and /v1/gallery
// share: ann_index and nprobe (every engine's ANN knob), plus whichever
// optional surfaces the engine has — shards and loaded_shards (sharded
// store), defense (a defended engine's descriptor spec). degraded
// reports a sharded engine serving with some shards unavailable.
func engineTopology(g gallery.Engine) (topo map[string]any, degraded bool) {
	topo = map[string]any{}
	if sh, ok := g.(shardedEngine); ok {
		topo["shards"] = sh.Shards()
		topo["loaded_shards"] = sh.LoadedShards()
		degraded = sh.LoadedShards() < sh.Shards()
	}
	topo["ann_index"] = g.HasANNIndex()
	topo["nprobe"] = g.ANNProbe()
	if d, ok := g.(defendedEngine); ok && d.Defense() != nil {
		topo["defense"] = d.Defense().String()
	}
	return topo, degraded
}

func (s *Server) handleGallery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.mGallery.observe(start, false) }()
	g := s.atk.Gallery()
	resp := map[string]any{
		"subjects":       g.Len(),
		"features":       g.Features(),
		"format_version": gallery.FormatVersion,
		"feature_index":  g.FeatureIndex() != nil,
		"ids":            g.IDs(),
	}
	topo, _ := engineTopology(g)
	maps.Copy(resp, topo)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mutable, rep := s.writeSurface(), s.replicaRef()
	endpoints := map[string]any{
		"identify":        s.mIdentify.snapshot(),
		"batch":           s.mBatch.snapshot(),
		"identify_stream": s.mStream.snapshot(),
		"gallery":         s.mGallery.snapshot(),
		"healthz":         s.mHealth.snapshot(),
		"control":         s.mControl.snapshot(),
	}
	resp := map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"inflight":       len(s.inflight),
		"max_inflight":   s.cfg.MaxInflight,
		"writable":       mutable != nil,
		"role":           s.Role(),
		"promotions":     s.promotions.Load(),
		"demotions":      s.demotions.Load(),
		"scan_kernel":    gallery.ScanKernel(),
		"endpoints":      endpoints,
	}
	if mutable != nil {
		endpoints["enroll"] = s.mEnroll.snapshot()
		endpoints["delete"] = s.mDelete.snapshot()
	}
	if s.source != nil {
		endpoints["replicate"] = s.mReplicate.snapshot()
	}
	if st, ok := s.liveStats(mutable, rep); ok {
		resp["live"] = liveJSON(st)
	}
	if rep != nil {
		resp["replica"] = replicaJSON(rep.Stats())
	}
	writeJSON(w, http.StatusOK, resp)
}

// liveStats resolves the live engine's counters for whichever role the
// server plays: writable primary (the mutable gallery), read replica
// (the replica's engine), or read-only live mount (cfg.Live). The
// caller passes the surfaces it already resolved so one request sees
// one consistent role.
func (s *Server) liveStats(mutable gallery.Mutable, rep *replicate.Replica) (gallery.MutableStats, bool) {
	switch {
	case mutable != nil:
		return mutable.Stats(), true
	case rep != nil:
		return rep.Engine().Stats(), true
	case s.cfg.Live != nil:
		return s.cfg.Live.Stats(), true
	}
	return gallery.MutableStats{}, false
}

// replicaJSON renders replication-lag figures for the metrics and
// health endpoints.
func replicaJSON(st replicate.Stats) map[string]any {
	out := map[string]any{
		"primary":             st.Primary,
		"connected":           st.Connected,
		"seq":                 st.Seq,
		"primary_seq":         st.PrimarySeq,
		"seq_lag":             st.SeqLag,
		"staleness_seconds":   st.Staleness.Seconds(),
		"generation":          st.Generation,
		"upstream_generation": st.UpstreamGeneration,
		"bootstraps":          st.Bootstraps,
		"reconnects":          st.Reconnects,
	}
	if st.LastError != "" {
		out["last_error"] = st.LastError
	}
	return out
}

// liveJSON renders a live engine's compaction/log counters for the
// metrics and health endpoints.
func liveJSON(st gallery.MutableStats) map[string]any {
	return map[string]any{
		"generation":           st.Generation,
		"seq":                  st.Seq,
		"base_seq":             st.BaseSeq,
		"base_records":         st.BaseRecords,
		"mem_records":          st.MemRecords,
		"tombstones":           st.Tombstones,
		"wal_records":          st.WALRecords,
		"wal_bytes":            st.WALBytes,
		"compactions":          st.Compactions,
		"compacting":           st.Compacting,
		"last_compact_ms":      float64(st.LastCompactDuration.Microseconds()) / 1000,
		"recovered_torn_bytes": st.RecoveredTornBytes,
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.mHealth.observe(start, false) }()
	mutable, rep := s.writeSurface(), s.replicaRef()
	resp := map[string]any{
		"status":         "ok",
		"subjects":       s.atk.Gallery().Len(),
		"features":       s.atk.Gallery().Features(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"writable":       mutable != nil,
		"role":           s.Role(),
		"promotions":     s.promotions.Load(),
		"demotions":      s.demotions.Load(),
	}
	if st, ok := s.liveStats(mutable, rep); ok {
		// Compaction visibility for operators: a live server's health
		// report carries the engine's generation, sequence position,
		// overlay size, and whether a fold is running right now.
		resp["live"] = liveJSON(st)
	}
	if rep != nil {
		rs := rep.Stats()
		resp["replica"] = replicaJSON(rs)
		if !rs.Connected {
			// Still serving (possibly stale) local data, but operators
			// monitoring /healthz see the broken feed.
			resp["status"] = "degraded"
		}
	}
	topo, degraded := engineTopology(s.atk.Gallery())
	if degraded {
		// Degraded, not down: surviving shards still serve, but
		// operators monitoring /healthz see the partial failure.
		resp["status"] = "degraded"
	} else {
		// A healthy /healthz reports the shard count alone.
		delete(topo, "loaded_shards")
	}
	maps.Copy(resp, topo)
	writeJSON(w, http.StatusOK, resp)
}

// ---- helpers ----

// resolveK validates the requested candidate count, falling back to the
// session default.
func (s *Server) resolveK(w http.ResponseWriter, k int) (int, bool) {
	if k == 0 {
		k = s.atk.TopK()
	}
	if k < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("k=%d must be positive", k)})
		return 0, false
	}
	return k, true
}

// probesMatrix stacks row-probes into the features×probes column matrix
// the query engine consumes.
func probesMatrix(rows [][]float64) (*linalg.Matrix, error) {
	f := len(rows[0])
	if f == 0 {
		return nil, fmt.Errorf("probe 0 is empty")
	}
	for j, p := range rows {
		if len(p) != f {
			return nil, fmt.Errorf("probe %d has %d features, probe 0 has %d", j, len(p), f)
		}
	}
	m := linalg.NewMatrix(f, len(rows))
	for j, p := range rows {
		m.SetCol(j, p)
	}
	return m, nil
}

// decodeBody parses a bounded JSON body: an oversized body gets 413,
// any other decode failure (malformed JSON, unknown fields, trailing
// data) gets 400.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// writeQueryError maps identification failures to HTTP statuses:
// deadline → 504, caller-cancelled → 499-style 503, dimension problems
// → 400.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "identification timed out"})
	case errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request cancelled"})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
