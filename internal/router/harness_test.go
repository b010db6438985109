package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"brainprint/internal/attacker"
	"brainprint/internal/gallery/live"
	"brainprint/internal/replicate"
	"brainprint/internal/serve"
)

// ---- fault-injection harness ----

// flakyProxy is the in-process fault-injection proxy the partition
// tests route traffic through: per request it can drop the connection
// (a transport error for the caller), delay, or sever everything —
// decided by a seeded RNG for rate-based modes and by explicit
// counters for scripted ones. dropResponseNext is the nasty case: the
// request REACHES the backend and is processed, but the response dies
// on the wire — how a promotion gets applied with its acknowledgment
// lost.
type flakyProxy struct {
	t       *testing.T
	srv     *httptest.Server
	backend string
	forward *httputil.ReverseProxy

	mu       sync.Mutex
	rng      *rand.Rand
	dropP    float64        // P(drop request before it reaches the backend)
	delayP   float64        // P(delay a request)
	delay    time.Duration  // how long a delayed request sleeps
	severed  bool           // drop everything (a full partition)
	dropResp map[string]int // path → remaining requests to process-then-abort
}

// newFlaky builds a flaky proxy in front of backendURL.
func newFlaky(t *testing.T, backendURL string, seed int64) *flakyProxy {
	t.Helper()
	bu, err := url.Parse(backendURL)
	if err != nil {
		t.Fatalf("backend URL: %v", err)
	}
	f := &flakyProxy{
		t:        t,
		backend:  backendURL,
		forward:  httputil.NewSingleHostReverseProxy(bu),
		rng:      rand.New(rand.NewSource(seed)),
		dropResp: make(map[string]int),
	}
	f.forward.FlushInterval = -1
	f.srv = newTestServer(t, f)
	return f
}

// URL is the proxy's front address — what the victim dials instead of
// the backend.
func (f *flakyProxy) URL() string { return f.srv.URL }

// sever cuts (or restores) the whole link.
func (f *flakyProxy) sever(on bool) {
	f.mu.Lock()
	f.severed = on
	f.mu.Unlock()
}

// setDrop sets the per-request drop probability.
func (f *flakyProxy) setDrop(p float64) {
	f.mu.Lock()
	f.dropP = p
	f.mu.Unlock()
}

// setDelay makes a fraction p of requests sleep d before forwarding.
func (f *flakyProxy) setDelay(p float64, d time.Duration) {
	f.mu.Lock()
	f.delayP, f.delay = p, d
	f.mu.Unlock()
}

// dropResponseNext makes the next n requests to path reach the backend
// and then lose their responses.
func (f *flakyProxy) dropResponseNext(path string, n int) {
	f.mu.Lock()
	f.dropResp[path] += n
	f.mu.Unlock()
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	severed := f.severed
	drop := f.dropP > 0 && f.rng.Float64() < f.dropP
	var delay time.Duration
	if f.delayP > 0 && f.rng.Float64() < f.delayP {
		delay = f.delay
	}
	dropResp := false
	if f.dropResp[r.URL.Path] > 0 {
		f.dropResp[r.URL.Path]--
		dropResp = true
	}
	f.mu.Unlock()

	if severed || drop {
		panic(http.ErrAbortHandler) // aborts the connection: a transport error, not an HTTP status
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if dropResp {
		// Deliver the request for real, discard the backend's answer,
		// then kill the client's connection.
		body, _ := io.ReadAll(r.Body)
		req, err := http.NewRequest(r.Method, f.backend+r.URL.RequestURI(), bytes.NewReader(body))
		if err == nil {
			req.Header = r.Header.Clone()
			if resp, rerr := http.DefaultClient.Do(req); rerr == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		panic(http.ErrAbortHandler)
	}
	f.forward.ServeHTTP(w, r)
}

// ---- scripted fake upstreams ----

// fakeNode is a scripted upstream: a health document the test controls
// plus counting control endpoints — for pinning the router's decision
// logic without real engines.
type fakeNode struct {
	srv *httptest.Server

	mu            sync.Mutex
	health        UpstreamHealth
	down          bool // healthz answers 500
	downAfterFlip bool // go dark the instant a promote flips this node
	flips         int  // promote calls that actually flipped replica→primary
	promoteCalls  int
	demoteCalls   int
	repointedTo   []string
}

// newFakeNode builds a fake upstream with the given starting health.
func newFakeNode(t *testing.T, h UpstreamHealth) *fakeNode {
	t.Helper()
	n := &fakeNode{health: h}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.down {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(n.health)
	})
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.promoteCalls++
		if n.health.Writable {
			_ = json.NewEncoder(w).Encode(map[string]any{"role": "primary", "already_primary": true})
			return
		}
		n.flips++
		n.health.Writable = true
		n.health.Role = "primary"
		n.health.Live = &LiveHealth{Seq: n.health.Seq()}
		n.health.Replica = nil
		if n.downAfterFlip {
			n.down = true
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"role": "primary"})
	})
	mux.HandleFunc("POST /v1/demote", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.demoteCalls++
		n.health.Writable = false
		n.health.Role = "fenced"
		_ = json.NewEncoder(w).Encode(map[string]any{"role": "fenced"})
	})
	mux.HandleFunc("POST /v1/repoint", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Primary string `json:"primary"`
		}
		_ = json.NewDecoder(r.Body).Decode(&body)
		n.mu.Lock()
		defer n.mu.Unlock()
		n.repointedTo = append(n.repointedTo, body.Primary)
		if n.health.Replica != nil {
			n.health.Replica.Primary = body.Primary
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"primary": body.Primary})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]string{"served_by": n.srv.URL})
	})
	n.srv = newTestServer(t, mux)
	return n
}

func (n *fakeNode) url() string { return n.srv.URL }

// set mutates the scripted health under the node's lock.
func (n *fakeNode) set(mut func(h *UpstreamHealth)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	mut(&n.health)
}

// setDown makes /healthz answer 500 (a failed poll) until restored.
func (n *fakeNode) setDown(down bool) {
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
}

// snapshot reads the counters under the lock.
func (n *fakeNode) snapshot() (flips, promoteCalls, demoteCalls int, repointedTo []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.flips, n.promoteCalls, n.demoteCalls, append([]string(nil), n.repointedTo...)
}

// fakeReplicaHealth is a healthy replica document at the given seq and
// staleness, tailing primary.
func fakeReplicaHealth(primary string, seq int64, staleness float64) UpstreamHealth {
	return UpstreamHealth{
		Status: "ok", Role: "replica", Subjects: int(seq),
		Replica: &ReplicaHealth{Primary: primary, Connected: true, Seq: seq, PrimarySeq: seq, StalenessSeconds: staleness},
	}
}

// fakePrimaryHealth is a healthy writable primary document at the
// given seq.
func fakePrimaryHealth(seq int64) UpstreamHealth {
	return UpstreamHealth{Status: "ok", Role: "primary", Writable: true, Subjects: int(seq), Live: &LiveHealth{Seq: seq}}
}

// ---- real-topology helpers ----

const testFeatures = 16

// topoNode is one real serving node: a live engine or WAL-shipping
// replica under a real serve.Server.
type topoNode struct {
	url   string
	srv   *httptest.Server
	serve *serve.Server
	eng   *live.Engine       // primary only
	rep   *replicate.Replica // replica only
}

// randVec yields a deterministic pseudo-random fingerprint.
func randVec(rng *rand.Rand) []float64 {
	v := make([]float64, testFeatures)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// startPrimary builds a writable primary with n enrolled subjects and
// its replication surface mounted.
func startPrimary(t *testing.T, n int) *topoNode {
	t.Helper()
	eng, err := live.Create(filepath.Join(t.TempDir(), "primary"), testFeatures, nil, live.Options{NoSync: true})
	if err != nil {
		t.Fatalf("live.Create: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		if err := eng.Enroll(fmt.Sprintf("subj-%02d", i), randVec(rng)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	atk, err := attacker.New(nil, attacker.WithMutableGallery(eng), attacker.WithTopK(3))
	if err != nil {
		t.Fatalf("attacker.New: %v", err)
	}
	s, err := serve.New(atk, serve.Config{Live: eng})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srv := newTestServer(t, s.Handler())
	return &topoNode{url: srv.URL, srv: srv, serve: s, eng: eng}
}

// startReplicaNode builds a serving replica tailing primaryURL.
func startReplicaNode(t *testing.T, primaryURL string) *topoNode {
	t.Helper()
	rep, err := replicate.Start(primaryURL, filepath.Join(t.TempDir(), "replica"), replicate.Options{
		Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Poll: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("replicate.Start: %v", err)
	}
	follow(t, func() { rep.Close() })
	atk, err := attacker.New(rep, attacker.WithTopK(3))
	if err != nil {
		t.Fatalf("attacker.New: %v", err)
	}
	s, err := serve.New(atk, serve.Config{Replica: rep})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	// If the node gets promoted, engine ownership leaves the replica
	// (rep.Close no longer closes it) — the test must.
	t.Cleanup(func() {
		if s.Writable() {
			rep.Engine().Close()
		}
	})
	srv := newTestServer(t, s.Handler())
	return &topoNode{url: srv.URL, srv: srv, serve: s, rep: rep}
}

// startRouter builds a router, runs its poll loop in the background,
// and serves its handler.
func startRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go rt.Watch(ctx)
	srv := newTestServer(t, rt.Handler())
	return rt, srv
}

// fastRouter is the test-speed router config over the given topology.
func fastRouter(primary string, replicas ...string) Config {
	return Config{
		Primary:      primary,
		Replicas:     replicas,
		Poll:         50 * time.Millisecond,
		FailAfter:    2,
		MaxStaleness: 30 * time.Second,
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// routerHealth fetches and decodes the router's own health document.
func routerHealth(t *testing.T, routerURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(routerURL + "/healthz")
	if err != nil {
		t.Fatalf("router healthz: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("router healthz body: %v", err)
	}
	return doc
}

// identifyVia issues one identification read through the router,
// optionally with a staleness bound header, and reports the status,
// the upstream that served it, and the response body.
func identifyVia(t *testing.T, routerURL string, probe []float64, bound string) (int, string, string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"probe": probe})
	req, err := http.NewRequest(http.MethodPost, routerURL+"/v1/identify", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if bound != "" {
		req.Header.Set(HeaderMaxStaleness, bound)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("identify via router: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(HeaderUpstream), string(data)
}

// enrollVia issues one write through the router.
func enrollVia(t *testing.T, routerURL, id string, vec []float64) (int, string, string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"id": id, "fingerprint": vec})
	resp, err := http.Post(routerURL+"/v1/enroll", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("enroll via router: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(HeaderUpstream), string(data)
}
