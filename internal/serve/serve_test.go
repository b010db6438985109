package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"brainprint/internal/attacker"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
	"brainprint/internal/sampling"
)

// testGallery enrolls a deterministic gallery and returns it with its
// attack configuration and the raw probe group (columns correlate with
// the same-index enrolled subject).
func testGallery(t *testing.T) (*gallery.Gallery, *linalg.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const features, subjects = 300, 16
	known := linalg.NewMatrix(features, subjects)
	probes := linalg.NewMatrix(features, subjects)
	for j := 0; j < subjects; j++ {
		k := make([]float64, features)
		p := make([]float64, features)
		for i := range k {
			k[i] = rng.NormFloat64()
			p[i] = k[i] + 0.4*rng.NormFloat64()
		}
		known.SetCol(j, k)
		probes.SetCol(j, p)
	}
	// The paper's principal features: the 60 highest-leverage rows.
	p, err := sampling.Probabilities(known, sampling.Leverage)
	if err != nil {
		t.Fatalf("Probabilities: %v", err)
	}
	idx, err := sampling.TopK(p, 60)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	fps := known.SelectRows(idx)
	g := gallery.WithFeatureIndex(idx)
	ids := make([]string, subjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("subj-%02d", i)
	}
	if err := g.EnrollMatrix(ids, fps); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	return g, probes
}

// testService serves testGallery as a one-shard store and returns the
// service, its session, and the raw probe group.
func testService(t *testing.T, cfg Config) (*Server, *attacker.Attacker, *linalg.Matrix) {
	t.Helper()
	g, probes := testGallery(t)
	atk, err := attacker.New(shard.Wrap(g), attacker.WithTopK(3))
	if err != nil {
		t.Fatalf("attacker.New: %v", err)
	}
	s, err := New(atk, cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return s, atk, probes
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestHealthz(t *testing.T) {
	s, _, _ := testService(t, Config{})
	w := get(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if resp["status"] != "ok" || resp["subjects"].(float64) != 16 {
		t.Errorf("healthz = %v", resp)
	}
}

func TestIdentifyEndpoint(t *testing.T) {
	s, atk, probes := testService(t, Config{})
	h := s.Handler()
	w := postJSON(t, h, "/v1/identify", identifyRequest{ID: "probe-3", Probe: probes.Col(3)})
	if w.Code != http.StatusOK {
		t.Fatalf("identify status %d: %s", w.Code, w.Body.String())
	}
	var resp identifyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("identify body: %v", err)
	}
	if resp.ID != "probe-3" || len(resp.Candidates) != 3 {
		t.Fatalf("identify response %+v", resp)
	}
	// The service must return exactly what the library returns.
	want, err := atk.Identify(context.Background(), probes.Col(3))
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	for r := range want {
		got := resp.Candidates[r]
		if got.Index != want[r].Index || got.ID != want[r].ID || got.Score != want[r].Score {
			t.Errorf("rank %d: http %+v != library %+v", r, got, want[r])
		}
	}
	if resp.Candidates[0].ID != "subj-03" {
		t.Errorf("top-1 = %s, want subj-03", resp.Candidates[0].ID)
	}
}

func TestIdentifyKOverride(t *testing.T) {
	s, _, probes := testService(t, Config{})
	w := postJSON(t, s.Handler(), "/v1/identify", identifyRequest{Probe: probes.Col(0), K: 7})
	var resp identifyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("body: %v", err)
	}
	if len(resp.Candidates) != 7 {
		t.Errorf("k override ignored: got %d candidates", len(resp.Candidates))
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, atk, probes := testService(t, Config{})
	_, n := probes.Dims()
	req := batchRequest{Probes: make([][]float64, n), Assignment: true}
	for j := 0; j < n; j++ {
		req.Probes[j] = probes.Col(j)
		req.IDs = append(req.IDs, fmt.Sprintf("anon-%02d", j))
	}
	w := postJSON(t, s.Handler(), "/v1/identify/batch", req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch body: %v", err)
	}
	if len(resp.Results) != n || len(resp.Assignment) != n {
		t.Fatalf("batch response shape: %d results, %d assignment", len(resp.Results), len(resp.Assignment))
	}
	want, err := atk.IdentifyBatch(context.Background(), probes)
	if err != nil {
		t.Fatalf("IdentifyBatch: %v", err)
	}
	for j := range resp.Results {
		for r := range resp.Results[j] {
			got, wc := resp.Results[j][r], want.Ranked[j][r]
			if got.Index != wc.Index || got.Score != wc.Score {
				t.Errorf("probe %d rank %d: http %+v != library %+v", j, r, got, wc)
			}
		}
	}
}

func TestGalleryEndpoint(t *testing.T) {
	s, _, _ := testService(t, Config{})
	w := get(t, s.Handler(), "/v1/gallery")
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("gallery body: %v", err)
	}
	if resp["subjects"].(float64) != 16 || resp["features"].(float64) != 60 {
		t.Errorf("gallery = %v", resp)
	}
	if ids := resp["ids"].([]any); len(ids) != 16 || ids[0] != "subj-00" {
		t.Errorf("gallery ids = %v", ids)
	}
}

// TestShardedStoreService runs the full service over a sharded
// store: /v1/gallery and /healthz must report the topology,
// and identification answers must be bit-identical to the single-file
// session the rest of this file exercises.
func TestShardedStoreService(t *testing.T) {
	single, _, probes := testService(t, Config{})
	g, _ := testGallery(t)
	store, err := shard.FromGallery(g, 4, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	satk, err := attacker.New(store, attacker.WithTopK(3))
	if err != nil {
		t.Fatalf("attacker.New: %v", err)
	}
	s, err := New(satk, Config{})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	h := s.Handler()

	w := get(t, h, "/v1/gallery")
	var meta map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &meta); err != nil {
		t.Fatalf("gallery body: %v", err)
	}
	if meta["shards"].(float64) != 4 || meta["loaded_shards"].(float64) != 4 {
		t.Errorf("sharded gallery metadata = %v", meta)
	}
	w = get(t, h, "/healthz")
	var health map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if health["status"] != "ok" || health["shards"].(float64) != 4 {
		t.Errorf("sharded healthz = %v", health)
	}
	if _, has := health["loaded_shards"]; has {
		t.Errorf("healthy /healthz reports loaded_shards: %v", health)
	}
	for _, gone := range []string{"quantized", "scan_precision"} {
		if _, has := meta[gone]; has {
			t.Errorf("/v1/gallery still reports removed field %q", gone)
		}
		if _, has := health[gone]; has {
			t.Errorf("/healthz still reports removed field %q", gone)
		}
	}

	for j := 0; j < 4; j++ {
		ws := postJSON(t, h, "/v1/identify", identifyRequest{Probe: probes.Col(j)})
		wg := postJSON(t, single.Handler(), "/v1/identify", identifyRequest{Probe: probes.Col(j)})
		if ws.Code != http.StatusOK || wg.Code != http.StatusOK {
			t.Fatalf("probe %d: sharded %d, single %d", j, ws.Code, wg.Code)
		}
		var rs, rg identifyResponse
		if err := json.Unmarshal(ws.Body.Bytes(), &rs); err != nil {
			t.Fatalf("sharded body: %v", err)
		}
		if err := json.Unmarshal(wg.Body.Bytes(), &rg); err != nil {
			t.Fatalf("single body: %v", err)
		}
		if len(rs.Candidates) != len(rg.Candidates) {
			t.Fatalf("probe %d: %d vs %d candidates", j, len(rs.Candidates), len(rg.Candidates))
		}
		for r := range rs.Candidates {
			if rs.Candidates[r].ID != rg.Candidates[r].ID || rs.Candidates[r].Score != rg.Candidates[r].Score {
				t.Errorf("probe %d rank %d: sharded (%s, %v) != single (%s, %v)", j, r,
					rs.Candidates[r].ID, rs.Candidates[r].Score, rg.Candidates[r].ID, rg.Candidates[r].Score)
			}
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _, probes := testService(t, Config{})
	h := s.Handler()
	postJSON(t, h, "/v1/identify", identifyRequest{Probe: probes.Col(0)})
	postJSON(t, h, "/v1/identify", identifyRequest{Probe: []float64{1}}) // dim mismatch → error
	w := get(t, h, "/v1/metrics")
	var resp struct {
		ScanKernel string `json:"scan_kernel"`
		Endpoints  map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	if resp.ScanKernel != gallery.ScanKernel() {
		t.Errorf("scan_kernel = %q, want %q", resp.ScanKernel, gallery.ScanKernel())
	}
	m := resp.Endpoints["identify"]
	if m.Requests != 2 || m.Errors != 1 {
		t.Errorf("identify metrics = %+v, want 2 requests / 1 error", m)
	}
}

func TestBadRequests(t *testing.T) {
	s, _, probes := testService(t, Config{MaxBatch: 4})
	h := s.Handler()
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"empty probe", "/v1/identify", identifyRequest{}, http.StatusBadRequest},
		{"dim mismatch", "/v1/identify", identifyRequest{Probe: []float64{1, 2}}, http.StatusBadRequest},
		{"negative k", "/v1/identify", identifyRequest{Probe: probes.Col(0), K: -2}, http.StatusBadRequest},
		{"no probes", "/v1/identify/batch", batchRequest{}, http.StatusBadRequest},
		{"ragged probes", "/v1/identify/batch", batchRequest{Probes: [][]float64{{1, 2}, {1}}}, http.StatusBadRequest},
		{"ids mismatch", "/v1/identify/batch", batchRequest{Probes: [][]float64{probes.Col(0)}, IDs: []string{"a", "b"}}, http.StatusBadRequest},
		{"oversized batch", "/v1/identify/batch",
			batchRequest{Probes: [][]float64{probes.Col(0), probes.Col(1), probes.Col(2), probes.Col(3), probes.Col(4)}},
			http.StatusRequestEntityTooLarge},
		{"assignment non-square", "/v1/identify/batch",
			batchRequest{Probes: [][]float64{probes.Col(0)}, Assignment: true}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := postJSON(t, h, tc.path, tc.body); w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, strings.TrimSpace(w.Body.String()))
		}
	}
	// Unknown fields are rejected.
	req := httptest.NewRequest(http.MethodPost, "/v1/identify", strings.NewReader(`{"bogus": 1}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", w.Code)
	}
	// Wrong method.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/identify", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/identify = %d, want 405", w.Code)
	}
}

func TestRequestTimeout(t *testing.T) {
	// A 1ns budget expires before the sweep starts → 504.
	s, _, probes := testService(t, Config{RequestTimeout: time.Nanosecond})
	w := postJSON(t, s.Handler(), "/v1/identify", identifyRequest{Probe: probes.Col(0)})
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("expired budget: status %d, want 504 (%s)", w.Code, w.Body.String())
	}
}

func TestInflightBound(t *testing.T) {
	s, _, probes := testService(t, Config{MaxInflight: 1})
	// Fill the only slot manually, then a real request must get 503.
	s.inflight <- struct{}{}
	w := postJSON(t, s.Handler(), "/v1/identify", identifyRequest{Probe: probes.Col(0)})
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated server: status %d, want 503", w.Code)
	}
	<-s.inflight
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil session accepted")
	}
	atk, err := attacker.New(shard.Wrap(gallery.New(4)))
	if err != nil {
		t.Fatalf("attacker.New: %v", err)
	}
	if _, err := New(atk, Config{}); err == nil {
		t.Error("empty read-only gallery accepted")
	}
}

func TestListenAndServeShutdown(t *testing.T) {
	s, _, _ := testService(t, Config{Addr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not shut down")
	}
}
