package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"brainprint/internal/attacker"
	"brainprint/internal/gallery/live"
	"brainprint/internal/replicate"
)

// replicaService starts a real WAL-shipping replica of the primary at
// base URL and wraps it in a serve.Server — the topology node a router
// promotes during failover.
func replicaService(t *testing.T, primaryURL string) (*Server, *replicate.Replica) {
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
	s, err := New(atk, Config{Replica: rep})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	// After a promotion the engine's ownership moves to the server; the
	// replica's Close no longer closes it, so the test must.
	t.Cleanup(func() {
		if e, ok := s.writeSurface().(*live.Engine); ok {
			e.Close()
		}
	})
	return s, rep
}

// waitReplicaSeq polls until the replica reaches the wanted sequence.
func waitReplicaSeq(t *testing.T, rep *replicate.Replica, want int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if rep.Stats().Seq >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica stuck at seq %d, want %d (lastErr=%q)",
		rep.Stats().Seq, want, rep.Stats().LastError)
}

func healthDoc(t *testing.T, h http.Handler) map[string]any {
	t.Helper()
	w := get(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return doc
}

// TestPromoteFlipsReplicaWritable pins the promotion contract: a
// replica server flips into a writable primary whose mutation sequence
// continues from the replicated head, the flip is idempotent, and the
// role is visible in /healthz.
func TestPromoteFlipsReplicaWritable(t *testing.T) {
	ps, psrv := liveService(t, 40, 3)
	rs, rep := replicaService(t, psrv.URL)
	h := rs.Handler()

	primarySeq := ps.cfg.Live.Stats().Seq
	waitReplicaSeq(t, rep, primarySeq)
	if doc := healthDoc(t, h); doc["role"] != "replica" || doc["writable"] != false {
		t.Fatalf("pre-promotion healthz: role=%v writable=%v", doc["role"], doc["writable"])
	}
	// Writes on a replica answer 405.
	if w := postJSON(t, h, "/v1/enroll", map[string]any{"id": "x", "fingerprint": make([]float64, 40)}); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("enroll on replica: %d, want 405", w.Code)
	}

	w := postJSON(t, h, "/v1/promote", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("promote status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Role           string `json:"role"`
		Seq            int64  `json:"seq"`
		AlreadyPrimary bool   `json:"already_primary"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("promote body: %v", err)
	}
	if resp.Role != "primary" || resp.AlreadyPrimary || resp.Seq != primarySeq {
		t.Fatalf("promote response %+v (primary seq %d)", resp, primarySeq)
	}
	if doc := healthDoc(t, h); doc["role"] != "primary" || doc["writable"] != true || doc["promotions"].(float64) != 1 {
		t.Fatalf("post-promotion healthz: %v", doc)
	}

	// Seq handoff: the first post-promotion write gets the next number
	// the old primary would have assigned.
	vec := make([]float64, 40)
	vec[0] = 1
	if w := postJSON(t, h, "/v1/enroll", map[string]any{"id": "post-failover", "fingerprint": vec}); w.Code != http.StatusCreated {
		t.Fatalf("post-promotion enroll: %d, body %s", w.Code, w.Body)
	}
	if got := rep.Engine().Stats().Seq; got != primarySeq+1 {
		t.Fatalf("post-promotion seq %d, want %d", got, primarySeq+1)
	}
	// And the write is immediately identifiable through the same server.
	if w := postJSON(t, h, "/v1/identify", map[string]any{"probe": vec}); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "post-failover") {
		t.Fatalf("identify after promotion: %d, %s", w.Code, w.Body)
	}

	// A duplicate promote (a retrying router) is an idempotent no-op.
	w = postJSON(t, h, "/v1/promote", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "already_primary") {
		t.Fatalf("duplicate promote: %d, %s", w.Code, w.Body)
	}
	if doc := healthDoc(t, h); doc["promotions"].(float64) != 1 {
		t.Fatalf("promotions counter moved on duplicate promote: %v", doc["promotions"])
	}
}

// TestPromoteUnderConcurrentReads hammers identification and health
// reads across the promotion instant — the routing-table-swap race the
// role lock must make invisible (run under -race in CI).
func TestPromoteUnderConcurrentReads(t *testing.T) {
	_, psrv := liveService(t, 40, 8)
	rs, rep := replicaService(t, psrv.URL)
	h := rs.Handler()
	waitReplicaSeq(t, rep, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	probe := make([]float64, 40)
	probe[3] = 1
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w := postJSON(t, h, "/v1/identify", map[string]any{"probe": probe}); w.Code != http.StatusOK {
					t.Errorf("identify during promotion: %d %s", w.Code, w.Body)
					return
				}
				if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
					t.Errorf("healthz during promotion: %d", w.Code)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if w := postJSON(t, h, "/v1/promote", nil); w.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", w.Code, w.Body)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if rs.Role() != "primary" {
		t.Fatalf("role after promotion: %s", rs.Role())
	}
}

// TestPromoteRejectsStatic pins the 409 on a server with nothing to
// promote.
func TestPromoteRejectsStatic(t *testing.T) {
	s, _, _ := testService(t, Config{})
	if w := postJSON(t, s.Handler(), "/v1/promote", nil); w.Code != http.StatusConflict {
		t.Fatalf("promote on static server: %d, want 409", w.Code)
	}
}

// TestDemoteFencesPrimary pins the split-brain guard: a demoted
// primary refuses writes for good with a message naming the way back,
// keeps serving reads, and reports the fenced role.
func TestDemoteFencesPrimary(t *testing.T) {
	s, _, group := writableService(t, 40, 3)
	h := s.Handler()

	w := postJSON(t, h, "/v1/demote", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "fenced") {
		t.Fatalf("demote: %d, %s", w.Code, w.Body)
	}
	if doc := healthDoc(t, h); doc["role"] != "fenced" || doc["writable"] != false || doc["demotions"].(float64) != 1 {
		t.Fatalf("post-demotion healthz: %v", doc)
	}
	w = postJSON(t, h, "/v1/enroll", map[string]any{"id": "late", "fingerprint": group.Col(3)})
	if w.Code != http.StatusMethodNotAllowed || !strings.Contains(w.Body.String(), "-replica-of") {
		t.Fatalf("enroll on fenced server: %d, %s", w.Code, w.Body)
	}
	// Reads survive the fence.
	if w := postJSON(t, h, "/v1/identify", map[string]any{"probe": group.Col(0)}); w.Code != http.StatusOK {
		t.Fatalf("identify on fenced server: %d", w.Code)
	}
	// Idempotent; and a fenced server cannot be promoted back.
	if w := postJSON(t, h, "/v1/demote", nil); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "already_fenced") {
		t.Fatalf("duplicate demote: %d, %s", w.Code, w.Body)
	}
	if w := postJSON(t, h, "/v1/promote", nil); w.Code != http.StatusConflict {
		t.Fatalf("promote on fenced server: %d, want 409", w.Code)
	}
}

// TestRepointRetargetsReplica pins the repoint contract end to end: a
// replica retargeted at a second primary follows the new upstream.
func TestRepointRetargetsReplica(t *testing.T) {
	_, psrv := liveService(t, 40, 3)
	rs, rep := replicaService(t, psrv.URL)
	h := rs.Handler()
	waitReplicaSeq(t, rep, 3)

	// A second primary, one mutation ahead of the first.
	ps2, psrv2 := liveService(t, 40, 3)
	vec := make([]float64, 40)
	vec[1] = 2
	if err := ps2.cfg.Live.Enroll("only-on-two", vec); err != nil {
		t.Fatalf("Enroll: %v", err)
	}

	if w := postJSON(t, h, "/v1/repoint", map[string]any{"primary": "not a url"}); w.Code != http.StatusBadRequest {
		t.Fatalf("repoint bad URL: %d", w.Code)
	}
	w := postJSON(t, h, "/v1/repoint", map[string]any{"primary": psrv2.URL})
	if w.Code != http.StatusOK {
		t.Fatalf("repoint: %d, %s", w.Code, w.Body)
	}
	waitReplicaSeq(t, rep, 4)
	if got := rep.Stats().Primary; got != psrv2.URL {
		t.Fatalf("replica primary after repoint: %q, want %q", got, psrv2.URL)
	}
	if rep.Index("only-on-two") < 0 {
		t.Fatal("replica did not converge onto the new primary's data")
	}

	// Repoint on a non-replica is a 409.
	s2, _, _ := writableService(t, 40, 1)
	if w := postJSON(t, s2.Handler(), "/v1/repoint", map[string]any{"primary": psrv.URL}); w.Code != http.StatusConflict {
		t.Fatalf("repoint on primary: %d, want 409", w.Code)
	}
}
