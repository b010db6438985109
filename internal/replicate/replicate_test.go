package replicate

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"brainprint/internal/gallery/live"
)

// testFeatures keeps the fixtures small; correctness does not depend
// on dimensionality.
const testFeatures = 16

// randVec yields a deterministic pseudo-random fingerprint.
func randVec(rng *rand.Rand) []float64 {
	v := make([]float64, testFeatures)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// primary bundles a live engine with an httptest server exposing its
// replication surface the way internal/serve mounts it.
type primary struct {
	eng *live.Engine
	srv *httptest.Server
}

// newPrimary creates a fresh primary with n enrolled subjects.
func newPrimary(t testing.TB, n int) *primary {
	t.Helper()
	eng, err := live.Create(filepath.Join(t.TempDir(), "primary"), testFeatures, nil, live.Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		if err := eng.Enroll(fmt.Sprintf("s%05d", i), randVec(rng)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	return mountPrimary(t, eng)
}

// mountPrimary serves an open engine's replication surface.
func mountPrimary(t testing.TB, eng *live.Engine) *primary {
	t.Helper()
	src := NewSource(eng)
	src.Poll = 200 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathState, src.ServeState)
	mux.HandleFunc("GET "+PathFile, src.ServeFile)
	mux.HandleFunc("GET "+PathWAL, func(w http.ResponseWriter, r *http.Request) { src.ServeWAL(w, r, nil) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &primary{eng: eng, srv: srv}
}

// fastOptions keeps test reconnect loops snappy.
func fastOptions() Options {
	return Options{Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Poll: 200 * time.Millisecond}
}

// startReplica starts a replica of p in a fresh (or given) directory.
func startReplica(t testing.TB, p *primary, dir string) *Replica {
	t.Helper()
	if dir == "" {
		dir = filepath.Join(t.TempDir(), "replica")
	}
	rep, err := Start(p.srv.URL, dir, fastOptions())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// waitCaughtUp polls until the replica's head sequence reaches the
// primary's.
func waitCaughtUp(t testing.TB, rep *Replica, p *primary) {
	t.Helper()
	want := p.eng.Stats().Seq
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if rep.Stats().Seq >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica stuck at sequence %d, primary at %d (lastErr=%q)",
		rep.Stats().Seq, want, rep.Stats().LastError)
}

// assertEquivalent pins the acceptance contract: at the same sequence,
// replica enumeration and TopK answers are bit-identical to the
// primary's.
func assertEquivalent(t testing.TB, rep *Replica, p *primary) {
	t.Helper()
	pSt, rSt := p.eng.Stats(), rep.Stats()
	if pSt.Seq != rSt.Seq {
		t.Fatalf("sequence mismatch: primary %d, replica %d", pSt.Seq, rSt.Seq)
	}
	if !reflect.DeepEqual(p.eng.IDs(), rep.IDs()) {
		t.Fatalf("ID enumeration diverged: primary %d ids, replica %d ids", p.eng.Len(), rep.Len())
	}
	rng := rand.New(rand.NewSource(77))
	for q := 0; q < 5; q++ {
		probe := randVec(rng)
		want, err := p.eng.TopKCtx(context.Background(), probe, 5, 0)
		if err != nil {
			t.Fatalf("primary TopK: %v", err)
		}
		got, err := rep.TopKCtx(context.Background(), probe, 5, 0)
		if err != nil {
			t.Fatalf("replica TopK: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("TopK diverged on probe %d:\n  primary: %+v\n  replica: %+v", q, want, got)
		}
	}
}

func TestReadFrame(t *testing.T) {
	p := newPrimary(t, 3)
	frames, _, err := p.eng.WALRange(0, 0, 1<<20)
	if err != nil {
		t.Fatalf("WALRange: %v", err)
	}
	br := bufio.NewReader(bytes.NewReader(frames))
	var rebuilt []byte
	for i := 0; i < 3; i++ {
		frame, err := ReadFrame(br, MaxPayload(testFeatures))
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		rebuilt = append(rebuilt, frame...)
	}
	if _, err := ReadFrame(br, MaxPayload(testFeatures)); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	if !bytes.Equal(rebuilt, frames) {
		t.Fatal("round-tripped frames differ from the wire bytes")
	}

	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frames[:10])), MaxPayload(testFeatures)); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	bad := append([]byte(nil), frames...)
	bad[9] ^= 0x01 // flip a payload byte: the trailing CRC must catch it
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(bad)), MaxPayload(testFeatures)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt frame: %v, want ErrFrameCorrupt", err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge)), MaxPayload(testFeatures)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized frame: %v, want ErrFrameCorrupt", err)
	}
}

func TestReplicaBootstrapAndTail(t *testing.T) {
	p := newPrimary(t, 10)
	rep := startReplica(t, p, "")
	waitCaughtUp(t, rep, p)
	assertEquivalent(t, rep, p)

	// Live mutations stream through: new enrolls and a delete.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5; i++ {
		if err := p.eng.Enroll(fmt.Sprintf("online-%d", i), randVec(rng)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := p.eng.Delete("s00003"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	waitCaughtUp(t, rep, p)
	assertEquivalent(t, rep, p)

	st := rep.Stats()
	if st.SeqLag != 0 || st.Primary != p.srv.URL || st.Bootstraps != 1 {
		t.Fatalf("stats after catch-up: %+v", st)
	}
}

func TestReplicaAcrossCompaction(t *testing.T) {
	p := newPrimary(t, 8)
	rep := startReplica(t, p, "")
	waitCaughtUp(t, rep, p)

	// A compaction switches the primary's generation mid-tail; the
	// caught-up replica rides the switch without re-bootstrapping.
	rng := rand.New(rand.NewSource(43))
	if err := p.eng.Delete("s00001"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// The replica must reach the pre-compaction head first: a replica
	// still below the snapshot's cut when the switch happens is
	// SUPPOSED to re-bootstrap (covered by the history-gone test).
	waitCaughtUp(t, rep, p)
	if err := p.eng.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := p.eng.Enroll(fmt.Sprintf("post-compact-%d", i), randVec(rng)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	waitCaughtUp(t, rep, p)
	assertEquivalent(t, rep, p)
	st := rep.Stats()
	if st.Bootstraps != 1 {
		t.Fatalf("compaction forced a re-bootstrap: %+v", st)
	}
	if st.UpstreamGeneration != 1 {
		t.Fatalf("UpstreamGeneration = %d, want 1", st.UpstreamGeneration)
	}
}

func TestReplicaRebootstrapWhenHistoryGone(t *testing.T) {
	p := newPrimary(t, 6)
	dir := filepath.Join(t.TempDir(), "replica")
	rep, err := Start(p.srv.URL, dir, fastOptions())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitCaughtUp(t, rep, p)
	if err := rep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// While the replica is down, the primary moves on AND compacts, so
	// the snapshot is cut past the replica's head: the frames it needs
	// are folded into the base and the primary answers 410.
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 3; i++ {
		if err := p.eng.Enroll(fmt.Sprintf("while-down-%d", i), randVec(rng)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := p.eng.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	rep, err = Start(p.srv.URL, dir, fastOptions())
	if err != nil {
		t.Fatalf("reStart: %v", err)
	}
	defer rep.Close()
	waitCaughtUp(t, rep, p)
	assertEquivalent(t, rep, p)
	if st := rep.Stats(); st.Bootstraps < 1 {
		t.Fatalf("expected a re-bootstrap, stats: %+v", st)
	}
}

func TestReplicaTornTailRestart(t *testing.T) {
	p := newPrimary(t, 6)
	dir := filepath.Join(t.TempDir(), "replica")
	rep, err := Start(p.srv.URL, dir, fastOptions())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitCaughtUp(t, rep, p)
	gen := rep.Engine().Generation()
	if err := rep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the replica's local log tail — the signature of a crash
	// mid-apply — and mutate the primary while it is down.
	walPath := filepath.Join(dir, fmt.Sprintf("live.g%04d.bpw", gen))
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("opening replica log: %v", err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatalf("tearing log: %v", err)
	}
	f.Close()
	rng := rand.New(rand.NewSource(45))
	if err := p.eng.Enroll("after-tear", randVec(rng)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}

	rep, err = Start(p.srv.URL, dir, fastOptions())
	if err != nil {
		t.Fatalf("reStart after torn tail: %v", err)
	}
	defer rep.Close()
	if rb := rep.Engine().Stats().RecoveredTornBytes; rb == 0 {
		t.Fatal("expected torn-tail recovery on reopen")
	}
	waitCaughtUp(t, rep, p)
	assertEquivalent(t, rep, p)
}

// TestReplicaRacingQueries drives concurrent primary enrolls against
// concurrent replica identify queries mid-catch-up — the -race
// coverage the replication tier must survive — then pins bit-identical
// results once caught up.
func TestReplicaRacingQueries(t *testing.T) {
	p := newPrimary(t, 10)
	rep := startReplica(t, p, "")

	const writers = 2
	const perWriter = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWriter; i++ {
				if err := p.eng.Enroll(fmt.Sprintf("race-w%d-%d", w, i), randVec(rng)); err != nil {
					t.Errorf("Enroll: %v", err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rep.TopKCtx(context.Background(), randVec(rng), 3, 0); err != nil {
					t.Errorf("replica TopK during catch-up: %v", err)
					return
				}
			}
		}(q)
	}
	// Let writers finish, then let the replica catch up under query
	// load before stopping the readers.
	waitWriters := make(chan struct{})
	go func() {
		defer close(waitWriters)
		for {
			if p.eng.Len() >= 10+writers*perWriter-1 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	<-waitWriters
	waitCaughtUp(t, rep, p)
	close(stop)
	wg.Wait()
	waitCaughtUp(t, rep, p)
	assertEquivalent(t, rep, p)
}

// TestServeWALWindowErrors pins the HTTP status contract: in-window
// resumes stream, a diverged same-generation position answers 409, and
// compacted-away history answers 410.
func TestServeWALWindowErrors(t *testing.T) {
	p := newPrimary(t, 4)
	get := func(gen int, after int64) int {
		resp, err := http.Get(fmt.Sprintf("%s%s?gen=%d&after=%d", p.srv.URL, PathWAL, gen, after))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(0, 99); code != http.StatusConflict {
		t.Fatalf("past-head resume: %d, want 409", code)
	}
	if err := p.eng.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	rng := rand.New(rand.NewSource(46))
	if err := p.eng.Enroll("post", randVec(rng)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if code := get(0, 1); code != http.StatusGone {
		t.Fatalf("compacted-away resume: %d, want 410", code)
	}
	if code := get(0, 4); code != http.StatusOK {
		t.Fatalf("seed-boundary resume: %d, want 200", code)
	}
}
