package replicate

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"brainprint/internal/defense"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/linalg"
)

// Options tunes a replica at Start time.
type Options struct {
	// Client is the HTTP client used against the primary (a default
	// client when nil; the replica manages per-request contexts, so the
	// client should not carry its own global timeout).
	Client *http.Client
	// Backoff is the initial reconnect delay after a stream error
	// (default 250ms), doubling up to MaxBackoff (default 5s).
	Backoff time.Duration
	// MaxBackoff caps the reconnect delay.
	MaxBackoff time.Duration
	// Poll is the idle window the replica asks a stream to stay open
	// for; it bounds the wall-clock staleness estimate (DefaultPoll
	// when zero).
	Poll time.Duration
	// CompactAfter triggers local compaction of the replica's own
	// directory once its log holds this many records (0 = manual only).
	// Local compaction does not disturb the sequence alignment with the
	// primary.
	CompactAfter int
	// Logf receives replica lifecycle messages (nil = silent).
	Logf func(format string, args ...any)
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = DefaultPoll
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats is a point-in-time snapshot of a replica's replication health,
// surfaced by /healthz and /v1/metrics on a replica server.
type Stats struct {
	// Primary is the upstream base URL.
	Primary string
	// Connected reports whether a stream to the primary is currently
	// open.
	Connected bool
	// Seq is the replica's own head sequence — the last mutation it
	// has durably applied.
	Seq int64
	// PrimarySeq is the primary's head sequence as of the last contact
	// (0 before the first).
	PrimarySeq int64
	// SeqLag is max(PrimarySeq - Seq, 0): how many mutations behind
	// the replica's reads are.
	SeqLag int64
	// Staleness is the wall-clock time since the replica last heard
	// from the primary — an upper bound on how old PrimarySeq is.
	Staleness time.Duration
	// Generation is the replica's local on-disk generation.
	Generation int
	// UpstreamGeneration is the primary generation whose log the
	// replica is tailing.
	UpstreamGeneration int
	// Bootstraps counts full snapshot bootstraps (including the initial
	// one) over the replica's lifetime.
	Bootstraps int64
	// Reconnects counts stream reconnect attempts after errors.
	Reconnects int64
	// LastError is the most recent replication error ("" when healthy).
	LastError string
}

// upstreamFile records the primary generation the replica's local log
// is a byte-for-byte retelling of, so a restart resumes against the
// right history.
const upstreamFile = "UPSTREAM"

// Replica is a read-only follower of a remote primary: a local live
// engine kept in sync by tailing the primary's write-ahead-log stream.
// It implements gallery.Engine, so it drops into an attacker session
// and the HTTP service exactly like a local store; writes are refused
// upstream of it (the serve layer answers 405, because a replica
// session carries no mutable gallery).
type Replica struct {
	dir  string
	opts Options

	mu           sync.RWMutex
	primary      string
	eng          *live.Engine
	upstreamGen  int
	lastErr      string
	detached     bool
	streamCancel context.CancelFunc // breaks the in-flight stream on Repoint

	connected   atomic.Bool
	primarySeq  atomic.Int64
	lastContact atomic.Int64 // unix microseconds
	bootstraps  atomic.Int64
	reconnects  atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Start opens (or bootstraps) a replica of the primary at base URL
// primary into local directory dir and begins tailing in the
// background. If dir already holds a live directory with an upstream
// marker, it reopens locally and resumes from its own head sequence;
// otherwise it bootstraps a full snapshot of the primary's current
// generation. Close stops the tail and releases the engine.
func Start(primary, dir string, opts Options) (*Replica, error) {
	if _, err := url.Parse(primary); err != nil || !strings.Contains(primary, "://") {
		return nil, fmt.Errorf("replicate: primary %q is not an absolute URL", primary)
	}
	r := &Replica{
		dir:  dir,
		opts: opts.withDefaults(),
		done: make(chan struct{}),
	}
	r.primary = strings.TrimRight(primary, "/")
	r.ctx, r.cancel = context.WithCancel(context.Background())
	if gen, err := readUpstream(dir); err == nil {
		eng, err := live.Open(dir, live.Options{CompactAfter: r.opts.CompactAfter})
		if err != nil {
			r.cancel()
			return nil, fmt.Errorf("replicate: reopening local replica state: %w", err)
		}
		if st := eng.Stats(); st.RecoveredTornBytes > 0 {
			r.opts.Logf("replica: recovered a torn log tail (%d bytes truncated); resuming from sequence %d", st.RecoveredTornBytes, st.Seq)
		}
		r.eng, r.upstreamGen = eng, gen
	} else {
		eng, gen, err := r.bootstrap(r.ctx)
		if err != nil {
			r.cancel()
			return nil, err
		}
		r.eng, r.upstreamGen = eng, gen
	}
	go r.loop()
	return r, nil
}

// Close stops the replication tail and closes the local engine.
// In-flight queries finish normally. After Detach the engine's
// ownership has moved to the caller, so Close stops nothing but the
// (already finished) tail and leaves the engine open.
func (r *Replica) Close() error {
	r.cancel()
	<-r.done
	r.mu.RLock()
	eng, detached := r.eng, r.detached
	r.mu.RUnlock()
	if detached {
		return nil
	}
	return eng.Close()
}

// Detach stops the replication tail cleanly and hands the local live
// engine to the caller — the promotion path. The engine keeps serving
// queries throughout (the tail stops, nothing is closed or swapped) and
// its mutation sequence continues from the replicated head, so the
// first post-promotion write gets the next sequence number the old
// primary would have assigned. The upstream marker is removed, making
// the directory a first-class primary: a restart opens it writable
// instead of resuming a tail. Detach is one-way; a second call (or a
// later Repoint) fails.
func (r *Replica) Detach() (*live.Engine, error) {
	r.cancel()
	<-r.done
	r.mu.Lock()
	if r.detached {
		r.mu.Unlock()
		return nil, fmt.Errorf("replicate: replica already detached")
	}
	r.detached = true
	eng := r.eng
	r.mu.Unlock()
	r.connected.Store(false)
	if err := os.Remove(filepath.Join(r.dir, upstreamFile)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("replicate: removing upstream marker: %w", err)
	}
	return eng, nil
}

// Repoint retargets the replica at a new primary (a post-failover
// topology change: the old primary died and a sibling was promoted).
// The in-flight stream is broken immediately and the tail reconnects
// against the new upstream; the sequence scheme decides whether it can
// resume from its own head or must re-bootstrap — a promoted sibling
// was at least as caught up as this replica, so resume is the common
// case, and a primary that compacted past this replica's position
// triggers the usual 410 → fresh-snapshot path.
func (r *Replica) Repoint(primary string) error {
	if _, err := url.Parse(primary); err != nil || !strings.Contains(primary, "://") {
		return fmt.Errorf("replicate: new primary %q is not an absolute URL", primary)
	}
	r.mu.Lock()
	if r.detached {
		r.mu.Unlock()
		return fmt.Errorf("replicate: replica already detached")
	}
	r.primary = strings.TrimRight(primary, "/")
	cancel := r.streamCancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	r.opts.Logf("replica: repointed at %s", primary)
	return nil
}

// primaryURL reads the current upstream base URL.
func (r *Replica) primaryURL() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.primary
}

// Stats reports the replica's current replication health.
func (r *Replica) Stats() Stats {
	r.mu.RLock()
	eng := r.eng
	upstream := r.upstreamGen
	lastErr := r.lastErr
	primary := r.primary
	r.mu.RUnlock()
	st := eng.Stats()
	out := Stats{
		Primary:            primary,
		Connected:          r.connected.Load(),
		Seq:                st.Seq,
		PrimarySeq:         r.primarySeq.Load(),
		Generation:         st.Generation,
		UpstreamGeneration: upstream,
		Bootstraps:         r.bootstraps.Load(),
		Reconnects:         r.reconnects.Load(),
		LastError:          lastErr,
	}
	if out.PrimarySeq > out.Seq {
		out.SeqLag = out.PrimarySeq - out.Seq
	}
	if lc := r.lastContact.Load(); lc > 0 {
		out.Staleness = time.Duration(time.Now().UnixMicro()-lc) * time.Microsecond
	}
	return out
}

// Engine returns the replica's current local engine — a snapshot: a
// concurrent re-bootstrap may swap it, so hold the result only within
// one logical operation.
func (r *Replica) Engine() *live.Engine {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.eng
}

// ---- background tail ----

// loop reconnects the stream with exponential backoff until Close,
// re-bootstrapping from a fresh snapshot when the primary no longer
// retains the needed history.
func (r *Replica) loop() {
	defer close(r.done)
	backoff := r.opts.Backoff
	for {
		if r.ctx.Err() != nil {
			return
		}
		err := r.tailOnce(r.ctx)
		switch {
		case err == nil:
			backoff = r.opts.Backoff // clean poll cycle: reconnect immediately
			continue
		case r.ctx.Err() != nil:
			return
		case errors.Is(err, ErrHistoryGone):
			r.setErr(err)
			r.connected.Store(false)
			r.opts.Logf("replica: %v; re-bootstrapping from a fresh snapshot", err)
			if rerr := r.rebootstrap(r.ctx); rerr != nil {
				r.setErr(rerr)
				r.opts.Logf("replica: re-bootstrap failed: %v", rerr)
			} else {
				backoff = r.opts.Backoff
				continue
			}
		default:
			r.setErr(err)
			r.connected.Store(false)
			r.reconnects.Add(1)
		}
		select {
		case <-r.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > r.opts.MaxBackoff {
			backoff = r.opts.MaxBackoff
		}
	}
}

// tailOnce opens one stream and applies frames until it ends. A nil
// return is a clean end (idle poll window, primary generation switch,
// repoint, or shutdown): the caller reconnects immediately — against
// the new upstream, if the URL changed meanwhile.
func (r *Replica) tailOnce(parent context.Context) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	r.mu.Lock()
	eng := r.eng
	upstream := r.upstreamGen
	primary := r.primary
	r.streamCancel = cancel
	r.mu.Unlock()
	seq := eng.Stats().Seq
	u := fmt.Sprintf("%s%s?gen=%d&after=%d", primary, PathWAL, upstream, seq)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil && parent.Err() == nil {
			return nil // repointed mid-dial: reconnect against the new upstream
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	pgen, err := strconv.Atoi(resp.Header.Get(HeaderGeneration))
	if err != nil {
		return fmt.Errorf("%w: stream missing %s header", ErrBadState, HeaderGeneration)
	}
	if pseq, err := strconv.ParseInt(resp.Header.Get(HeaderSeq), 10, 64); err == nil {
		r.primarySeq.Store(pseq)
	}
	r.lastContact.Store(time.Now().UnixMicro())
	r.connected.Store(true)
	r.setErr(nil)
	if pgen != upstream {
		if err := r.setUpstream(pgen); err != nil {
			return err
		}
	}
	br := bufio.NewReader(resp.Body)
	maxPayload := MaxPayload(eng.Features())
	for {
		frame, err := ReadFrame(br, maxPayload)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				if parent.Err() == nil {
					return nil // repointed mid-stream: reconnect cleanly
				}
				return ctx.Err()
			}
			return fmt.Errorf("replication stream: %w", err)
		}
		if err := eng.ApplyReplicated(frame); err != nil {
			// A frame that does not apply means this replica's history
			// has diverged from the primary's — only a fresh snapshot
			// reconverges.
			return fmt.Errorf("%w: applying frame: %v", ErrHistoryGone, err)
		}
		r.lastContact.Store(time.Now().UnixMicro())
		if s := eng.Stats().Seq; s > r.primarySeq.Load() {
			r.primarySeq.Store(s)
		}
	}
}

// setErr records the most recent replication error for Stats.
func (r *Replica) setErr(err error) {
	r.mu.Lock()
	if err == nil {
		r.lastErr = ""
	} else {
		r.lastErr = err.Error()
	}
	r.mu.Unlock()
}

// setUpstream persists and records the primary generation the stream
// switched to.
func (r *Replica) setUpstream(gen int) error {
	if err := writeUpstream(r.dir, gen); err != nil {
		return err
	}
	r.mu.Lock()
	r.upstreamGen = gen
	r.mu.Unlock()
	return nil
}

// ---- bootstrap ----

// bootstrap copies the primary's current generation byte-for-byte into
// the replica directory and opens it. Any previous local state is
// removed first; the CURRENT pointer is written last, so a crash
// mid-bootstrap leaves a directory the next Start simply re-bootstraps.
func (r *Replica) bootstrap(ctx context.Context) (*live.Engine, int, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, 0, err
	}
	st, err := r.fetchState(ctx)
	if err != nil {
		return nil, 0, err
	}
	if st.WALVersion != live.WALVersion {
		return nil, 0, fmt.Errorf("%w: primary speaks write-ahead log version %d, this replica %d", ErrBadState, st.WALVersion, live.WALVersion)
	}
	if err := wipeLocal(r.dir); err != nil {
		return nil, 0, err
	}
	for _, f := range st.Files {
		if err := r.fetchFile(ctx, f.Name, f.Size); err != nil {
			return nil, 0, err
		}
	}
	if err := r.fetchFile(ctx, st.WAL, st.WALBytes); err != nil {
		return nil, 0, err
	}
	if err := writeUpstream(r.dir, st.Generation); err != nil {
		return nil, 0, err
	}
	if err := live.WriteCurrentFile(r.dir, st.Generation); err != nil {
		return nil, 0, err
	}
	eng, err := live.Open(r.dir, live.Options{CompactAfter: r.opts.CompactAfter})
	if err != nil {
		return nil, 0, fmt.Errorf("replicate: opening bootstrapped snapshot: %w", err)
	}
	if got := eng.Stats().Seq; got != st.Seq {
		eng.Close()
		return nil, 0, fmt.Errorf("%w: bootstrapped snapshot replays to sequence %d, state said %d", ErrBadState, got, st.Seq)
	}
	r.bootstraps.Add(1)
	r.primarySeq.Store(st.Seq)
	r.lastContact.Store(time.Now().UnixMicro())
	r.opts.Logf("replica: bootstrapped generation %d at sequence %d (%d files)", st.Generation, st.Seq, len(st.Files)+1)
	return eng, st.Generation, nil
}

// rebootstrap replaces the local state with a fresh snapshot while the
// superseded engine keeps serving queries: its records live in memory
// and its log handle survives the unlink, so reads never block on the
// download. The swap carries the ANN fan-out over.
func (r *Replica) rebootstrap(ctx context.Context) error {
	r.mu.RLock()
	old := r.eng
	r.mu.RUnlock()
	nprobe := old.ANNProbe()
	eng, gen, err := r.bootstrap(ctx)
	if err != nil {
		return err
	}
	if nprobe > 0 {
		if serr := eng.SetANNProbe(nprobe); serr != nil {
			r.opts.Logf("replica: re-applying ANN fan-out after re-bootstrap: %v", serr)
		}
	}
	r.mu.Lock()
	r.eng, r.upstreamGen = eng, gen
	r.mu.Unlock()
	old.Close()
	return nil
}

// fetchState downloads and parses the primary's state document.
func (r *Replica) fetchState(ctx context.Context) (State, error) {
	var st State
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primaryURL()+PathState, nil)
	if err != nil {
		return st, err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, statusError(resp)
	}
	if err := decodeJSON(resp.Body, &st); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if st.Features <= 0 || st.WAL == "" {
		return st, fmt.Errorf("%w: implausible state document %+v", ErrBadState, st)
	}
	return st, nil
}

// fetchFile downloads one generation file to the replica directory and
// fsyncs it, verifying the byte count.
func (r *Replica) fetchFile(ctx context.Context, name string, size int64) error {
	if name != filepath.Base(name) {
		return fmt.Errorf("%w: state names file %q outside the directory", ErrBadState, name)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primaryURL()+PathFile+"?name="+url.QueryEscape(name), nil)
	if err != nil {
		return err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	f, err := os.OpenFile(filepath.Join(r.dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, io.LimitReader(resp.Body, size+1))
	if err != nil {
		f.Close()
		return err
	}
	if n != size {
		f.Close()
		return fmt.Errorf("%w: file %s is %d bytes, state said %d", ErrBadState, name, n, size)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wipeLocal removes any previous replica state (generation files, the
// CURRENT pointer, the upstream marker) ahead of a fresh bootstrap.
// Open handles on removed files keep working — POSIX unlink semantics —
// so a superseded engine serves on undisturbed.
func wipeLocal(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		if name == "CURRENT" || name == upstreamFile || strings.HasPrefix(name, "live.g") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeUpstream persists the primary generation marker.
func writeUpstream(dir string, gen int) error {
	tmp := filepath.Join(dir, upstreamFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%d\n", gen); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, upstreamFile))
}

// readUpstream parses the primary generation marker.
func readUpstream(dir string) (int, error) {
	b, err := os.ReadFile(filepath.Join(dir, upstreamFile))
	if err != nil {
		return 0, err
	}
	gen, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || gen < 0 {
		return 0, fmt.Errorf("replicate: corrupt %s file: %q", upstreamFile, strings.TrimSpace(string(b)))
	}
	return gen, nil
}

// ---- gallery.Engine delegation ----

// Len returns the number of visible enrolled subjects.
func (r *Replica) Len() int { return r.Engine().Len() }

// Features returns the fingerprint dimensionality.
func (r *Replica) Features() int { return r.Engine().Features() }

// FeatureIndex returns the raw-space feature indices, or nil.
func (r *Replica) FeatureIndex() []int { return r.Engine().FeatureIndex() }

// Defense returns the anonymization pipeline the replicated base
// store was built under, or nil. Replicas copy the primary's
// generation files byte-for-byte, so the descriptor travels with the
// manifest and /healthz on a replica reports the same pipeline as the
// primary.
func (r *Replica) Defense() *defense.Descriptor { return r.Engine().Defense() }

// IDs returns the visible subject IDs in canonical order.
func (r *Replica) IDs() []string { return r.Engine().IDs() }

// ID returns the subject ID at canonical index i.
func (r *Replica) ID(i int) string { return r.Engine().ID(i) }

// Index returns the canonical index of a subject ID, or -1.
func (r *Replica) Index(id string) int { return r.Engine().Index(id) }

// TopKCtx ranks the k enrolled subjects most correlated with the
// probe, best first — bit-identical to the primary's answer at the
// same sequence number.
func (r *Replica) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]gallery.Candidate, error) {
	return r.Engine().TopKCtx(ctx, probe, k, parallelism)
}

// QueryAllCtx answers a batch of probes, one ranked top-k list per
// probe.
func (r *Replica) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]gallery.Candidate, error) {
	return r.Engine().QueryAllCtx(ctx, probes, k, parallelism)
}

// DenseSimilarityCtx materializes the full subjects×probes similarity
// matrix and its row labels, both from one engine.
func (r *Replica) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, []string, error) {
	return r.Engine().DenseSimilarityCtx(ctx, probes, parallelism)
}

// SetANNProbe selects the IVF cell fan-out of the local base scan
// (requires the primary's generation to carry an ANN sidecar, which
// bootstrap copies).
func (r *Replica) SetANNProbe(nprobe int) error { return r.Engine().SetANNProbe(nprobe) }

// ANNProbe reports the active cell fan-out (0 = exact).
func (r *Replica) ANNProbe() int { return r.Engine().ANNProbe() }

// HasANNIndex reports whether the local base carries an IVF sidecar.
func (r *Replica) HasANNIndex() bool { return r.Engine().HasANNIndex() }

var _ gallery.Engine = (*Replica)(nil)

// decodeJSON decodes one JSON document.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
