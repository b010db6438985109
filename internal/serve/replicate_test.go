package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"brainprint/internal/attacker"
	"brainprint/internal/replicate"
)

// liveService is writableService with the replication surface mounted.
func liveService(t *testing.T, features, seeded int) (*Server, *httptest.Server) {
	t.Helper()
	s, e, _ := writableService(t, features, seeded)
	s.cfg.Live = e
	s.source = replicate.NewSource(e)
	srv := newTestServer(t, s.Handler())
	return s, srv
}

func TestIdentifyStreamEndpoint(t *testing.T) {
	s, _, group := writableService(t, 40, 4)
	var body strings.Builder
	enc := json.NewEncoder(&body)
	for j := 0; j < 4; j++ {
		if err := enc.Encode(map[string]any{"id": fmt.Sprintf("probe-%d", j), "probe": group.Col(j)}); err != nil {
			t.Fatalf("encoding probe: %v", err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/identify/stream", strings.NewReader(body.String()))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := map[string]string{} // probe label → top-1 subject
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var line struct {
			ID         string `json:"id"`
			Candidates []struct {
				ID string `json:"id"`
			} `json:"candidates"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Fatalf("result line error: %s", line.Error)
		}
		if len(line.Candidates) == 0 {
			t.Fatalf("probe %s: no candidates", line.ID)
		}
		got[line.ID] = line.Candidates[0].ID
	}
	if len(got) != 4 {
		t.Fatalf("got %d result lines, want 4", len(got))
	}
	// Probes are the enrolled vectors themselves: each must identify
	// its own subject at rank 1, whatever order the results arrived in.
	for j := 0; j < 4; j++ {
		probe, want := fmt.Sprintf("probe-%d", j), fmt.Sprintf("subj-%02d", j)
		if got[probe] != want {
			t.Errorf("probe %s identified %s, want %s", probe, got[probe], want)
		}
	}
}

func TestIdentifyStreamBadLine(t *testing.T) {
	s, _, group := writableService(t, 40, 2)
	var body strings.Builder
	enc := json.NewEncoder(&body)
	if err := enc.Encode(map[string]any{"id": "good", "probe": group.Col(0)}); err != nil {
		t.Fatal(err)
	}
	body.WriteString("{\"id\": \"bad\"}\n") // missing probe vector kills the stream
	req := httptest.NewRequest(http.MethodPost, "/v1/identify/stream", strings.NewReader(body.String()))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d", w.Code)
	}
	var sawError bool
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var line struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if line.Error != "" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("bad request line produced no error line")
	}
}

func TestReplicationSurfaceMounted(t *testing.T) {
	s, srv := liveService(t, 24, 5)

	resp, err := http.Get(srv.URL + replicate.PathState)
	if err != nil {
		t.Fatalf("GET state: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state status = %d", resp.StatusCode)
	}
	var st replicate.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding state: %v", err)
	}
	if st.Seq != 5 || st.Features != 24 || st.WAL == "" {
		t.Fatalf("state = %+v", st)
	}

	fr, err := http.Get(srv.URL + replicate.PathFile + "?name=" + st.WAL)
	if err != nil {
		t.Fatalf("GET file: %v", err)
	}
	defer fr.Body.Close()
	if fr.StatusCode != http.StatusOK || fr.ContentLength != st.WALBytes {
		t.Fatalf("file status %d, length %d (want %d)", fr.StatusCode, fr.ContentLength, st.WALBytes)
	}

	// Metrics fold the replication hits into one bucket and expose the
	// engine's sequence coordinates.
	mw := get(t, s.Handler(), "/v1/metrics")
	var m map[string]any
	if err := json.Unmarshal(mw.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	if _, ok := m["endpoints"].(map[string]any)["replicate"]; !ok {
		t.Error("metrics missing replicate endpoint bucket")
	}
	if seq := m["live"].(map[string]any)["seq"].(float64); seq != 5 {
		t.Errorf("metrics live.seq = %v, want 5", seq)
	}
}

func TestReplicationSurfaceAbsentWithoutLive(t *testing.T) {
	s, _, _ := testService(t, Config{})
	w := get(t, s.Handler(), replicate.PathState)
	if w.Code != http.StatusNotFound {
		t.Errorf("replicate state on a non-live server = %d, want 404", w.Code)
	}
}

// TestWALStreamEndsOnDrain pins the graceful-shutdown satellite at the
// handler level: a long-poll log stream parked waiting for frames must
// end promptly when the drain signal fires, not hold shutdown hostage.
func TestWALStreamEndsOnDrain(t *testing.T) {
	s, srv := liveService(t, 24, 3)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s%s?gen=0&after=3", srv.URL, replicate.PathWAL))
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 1)
		_, err = resp.Body.Read(buf) // blocks until the stream ends
		done <- nil
		_ = err
	}()
	time.Sleep(100 * time.Millisecond) // let the stream park in its poll wait
	close(s.draining)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream request failed: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("WAL stream did not end on drain")
	}
}

func TestReplicaServiceReporting(t *testing.T) {
	_, primary := liveService(t, 24, 6)

	rep, err := replicate.Start(primary.URL, filepath.Join(t.TempDir(), "replica"), replicate.Options{
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Poll:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("replicate.Start: %v", err)
	}
	defer rep.Close()

	atk, err := attacker.New(rep, attacker.WithTopK(3))
	if err != nil {
		t.Fatalf("attacker.New over replica: %v", err)
	}
	s, err := New(atk, Config{Replica: rep})
	if err != nil {
		t.Fatalf("serve.New over replica: %v", err)
	}
	h := s.Handler()

	// A replica session carries no mutable gallery: writes answer 405.
	w := postJSON(t, h, "/v1/enroll", map[string]any{"id": "x", "fingerprint": make([]float64, 24)})
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("enroll on replica = %d, want 405", w.Code)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !rep.Stats().Connected {
		if time.Now().After(deadline) {
			t.Fatal("replica never connected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	hw := get(t, h, "/healthz")
	var health map[string]any
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil {
		t.Fatalf("health body: %v", err)
	}
	if health["status"] != "ok" {
		t.Errorf("connected replica health = %v", health["status"])
	}
	rj, ok := health["replica"].(map[string]any)
	if !ok {
		t.Fatalf("health missing replica block: %v", health)
	}
	if rj["primary"] != primary.URL || rj["seq"].(float64) != 6 {
		t.Errorf("replica block = %v", rj)
	}
	if lj, ok := health["live"].(map[string]any); !ok || lj["seq"].(float64) != 6 {
		t.Errorf("replica health live block = %v", health["live"])
	}

	// Kill the primary: once the tail notices, health degrades while
	// the replica keeps serving local reads.
	primary.CloseClientConnections()
	primary.Close()
	deadline = time.Now().Add(10 * time.Second)
	for rep.Stats().Connected {
		if time.Now().After(deadline) {
			t.Fatal("replica never noticed the dead primary")
		}
		time.Sleep(10 * time.Millisecond)
	}
	hw = get(t, h, "/healthz")
	health = nil
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil {
		t.Fatalf("health body: %v", err)
	}
	if health["status"] != "degraded" {
		t.Errorf("disconnected replica health = %v", health["status"])
	}
	iw := postJSON(t, h, "/v1/identify", map[string]any{"probe": make([]float64, 24), "k": 1})
	if iw.Code != http.StatusOK {
		t.Errorf("identify on degraded replica = %d, body %s", iw.Code, iw.Body)
	}
}

// TestIdentifyStreamEndsOnDrain holds an identify stream open over a
// real socket — results flowing, request body deliberately unfinished —
// and fires the drain signal: the stream must end at a line boundary
// instead of holding shutdown hostage.
func TestIdentifyStreamEndsOnDrain(t *testing.T) {
	s, _, group := writableService(t, 40, 2)
	srv := newTestServer(t, s.Handler())

	pr, pw := newBlockingBody()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/identify/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()

	// Feed one probe, read its result, then leave the stream open.
	line, _ := json.Marshal(map[string]any{"id": "p0", "probe": group.Col(0)})
	pw <- append(line, '\n')
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatalf("stream request: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no response headers")
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("reading first result line: %v", err)
	}

	// Drain: the open stream must end even though its body never does.
	start := time.Now()
	close(s.draining)
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Error("stream kept producing after drain")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("stream took %v to end after drain", elapsed)
	}
	close(pw)
}

// newBlockingBody is an io.Reader fed by a channel: it blocks until
// bytes are sent, modelling a client that holds its stream open.
func newBlockingBody() (*chanReader, chan []byte) {
	ch := make(chan []byte, 4)
	return &chanReader{ch: ch}, ch
}

type chanReader struct {
	ch  chan []byte
	buf []byte
}

func (c *chanReader) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		b, ok := <-c.ch
		if !ok {
			return 0, io.EOF
		}
		c.buf = b
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}
