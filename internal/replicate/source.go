package replicate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"brainprint/internal/gallery/live"
)

// DefaultPoll is the idle window a WAL stream stays open waiting for
// new frames before ending cleanly; the replica reconnects
// immediately, so the poll window bounds the replica's wall-clock
// staleness estimate.
const DefaultPoll = 10 * time.Second

// Source serves a live engine's replication surface: the state
// document, generation-file bootstrap copies, and the long-poll frame
// stream. internal/serve mounts one when serving a live directory —
// and, via NewSourceFunc, over a replica's current engine, which is
// what makes chained replication (a replica of a replica) and
// post-promotion continuity work.
type Source struct {
	// Poll is the stream's idle window (DefaultPoll when zero).
	Poll time.Duration

	eng func() *live.Engine
}

// NewSource wraps one fixed live engine for replication.
func NewSource(eng *live.Engine) *Source {
	return &Source{eng: func() *live.Engine { return eng }}
}

// NewSourceFunc wraps an engine provider for replication: each request
// resolves the engine afresh, so a source mounted over a replica keeps
// serving across the replica's re-bootstrap engine swaps (a stream
// caught mid-swap ends cleanly and the follower reconnects against the
// new engine).
func NewSourceFunc(eng func() *live.Engine) *Source {
	return &Source{eng: eng}
}

// State assembles the current state document.
func (s *Source) State() (State, error) {
	eng := s.eng()
	rs := eng.ReplicationState()
	files, err := eng.GenerationFiles()
	if err != nil {
		return State{}, err
	}
	st := State{
		Generation: rs.Generation,
		BaseSeq:    rs.BaseSeq,
		Seq:        rs.Seq,
		WALVersion: live.WALVersion,
		Features:   rs.Features,
		WAL:        rs.WALName,
		WALBytes:   rs.WALBytes,
		Files:      make([]FileInfo, 0, len(files)),
	}
	for _, f := range files {
		st.Files = append(st.Files, FileInfo{Name: f.Name, Size: f.Size})
	}
	return st, nil
}

// ServeState answers GET /v1/replicate/state.
func (s *Source) ServeState(w http.ResponseWriter, r *http.Request) {
	st, err := s.State()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// ServeFile answers GET /v1/replicate/file?name=N with one generation
// file, verbatim; the write-ahead log is truncated to its committed
// prefix. Unknown or out-of-generation names answer 404.
func (s *Source) ServeFile(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing name parameter")
		return
	}
	rc, size, err := s.eng().OpenGenerationFile(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	_, _ = io.Copy(w, rc)
}

// ServeWAL answers GET /v1/replicate/wal?gen=G&after=S: a long-poll
// stream of raw committed frames after sequence S of generation G. The
// response headers carry the primary's generation and head sequence at
// open time; the body is frames only. The stream ends
// cleanly when the poll window passes without new frames, when the
// generation switches, when the engine closes, or when drain closes (a
// graceful shutdown). Any position in [BaseSeq, Seq] is served,
// whichever generation the follower last tailed: a compaction carries
// the log past its cut over verbatim, so the current generation's log
// continues every older one. A position outside the window answers 409
// (same generation — the follower diverged) or 410 (older generation —
// history folded into the base); both tell the replica to re-bootstrap.
func (s *Source) ServeWAL(w http.ResponseWriter, r *http.Request, drain <-chan struct{}) {
	gen, err := strconv.Atoi(r.URL.Query().Get("gen"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad gen parameter")
		return
	}
	after, err := strconv.ParseInt(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad after parameter")
		return
	}
	eng := s.eng() // one engine for the whole stream: a mid-stream swap ends it cleanly
	rs := eng.ReplicationState()
	if after < rs.BaseSeq || after > rs.Seq {
		code := http.StatusConflict
		if gen != rs.Generation {
			code = http.StatusGone
		}
		writeError(w, code,
			fmt.Sprintf("sequence %d of generation %d is outside generation %d's window [%d, %d]", after, gen, rs.Generation, rs.BaseSeq, rs.Seq))
		return
	}
	gen = rs.Generation
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderGeneration, strconv.Itoa(rs.Generation))
	w.Header().Set(HeaderSeq, strconv.FormatInt(rs.Seq, 10))
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	poll := s.Poll
	if poll <= 0 {
		poll = DefaultPoll
	}
	ctx := r.Context()
	cur := after
	for {
		frames, upTo, err := eng.WALRange(gen, cur, 1<<22)
		if err != nil {
			return // generation switched or engine closed: end cleanly, the replica reconnects
		}
		if len(frames) > 0 {
			if _, err := w.Write(frames); err != nil {
				return
			}
			flusher.Flush()
			cur = upTo
			continue
		}
		wctx, cancel := contextWithDrain(ctx, drain, poll)
		err = eng.WaitWAL(wctx, gen, cur)
		cancel()
		if err != nil {
			return // idle window passed, client gone, draining, or closed
		}
	}
}

// contextWithDrain derives a context that ends after the poll timeout
// or when drain closes, whichever comes first.
func contextWithDrain(parent context.Context, drain <-chan struct{}, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(parent, timeout)
	if drain == nil {
		return ctx, cancel
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-drain:
			cancel()
		case <-done:
		}
	}()
	return ctx, func() { close(done); cancel() }
}

// writeError emits the service's JSON error shape.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// statusError converts a non-2xx replication response into a typed
// error, draining the body for its message.
func statusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var payload struct {
		Error string `json:"error"`
	}
	msg := string(body)
	if json.Unmarshal(body, &payload) == nil && payload.Error != "" {
		msg = payload.Error
	}
	if resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusGone {
		return fmt.Errorf("%w: %s", ErrHistoryGone, msg)
	}
	return fmt.Errorf("replicate: %s answered %d: %s", resp.Request.URL.Path, resp.StatusCode, msg)
}
