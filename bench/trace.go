package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
	"brainprint/internal/replicate"
)

// The traced run. The benchmark owns the recorder; every span boundary
// sits outside the program: the client call, an http.Handler wrapped
// around router.Handler() and each serve.Handler(), and an engine
// decorator handed to attacker.New. The request id and the parent span
// travel in two headers between tiers (the router's reverse proxy
// forwards request headers) and in the request context inside a tier
// (serve passes r.Context() down to the engine). Enroll and Delete take
// no context, so those engine spans find their request by subject id.

const (
	hdrRequest = "X-Bench-Request"
	hdrParent  = "X-Bench-Parent"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanRef is what a child needs to attach itself: its request and its
// parent span.
type spanRef struct{ request, parent int64 }

type spanKey struct{}

// recorder holds spans in memory until the workload ends. The client
// decides per request whether it is traced (recorder on at send time)
// and says so with the two headers; the server-side boundaries record
// exactly the requests that carry them, so a request is traced at every
// layer or at none.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span

	// An enroll or delete reaches the engine without a context: the
	// client registers subject id → request before sending and the serve
	// wrapper request → its span, so the engine decorator finds both.
	subjects sync.Map // subject id → request id
	serving  sync.Map // request id → serve span id
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open reserves a span id and reads the clock.
func (r *recorder) open() (id, start int64) { return r.next.Add(1), r.now() }

func (r *recorder) close(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// A traced run switches the recorder on and off in windows through one
// measured phase, so traced and untraced requests sample the same
// evolving state (overlay size, compactions) and their medians differ by
// the tracing overhead alone.
const (
	tracedWindow   = 750 * time.Millisecond
	untracedWindow = 250 * time.Millisecond
)

// alternate switches the recorder on and off in those windows until the
// returned stop function is called; stop leaves it off.
func (r *recorder) alternate() (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for on := true; ; on = !on {
			r.on.Store(on)
			d := untracedWindow
			if on {
				d = tracedWindow
			}
			select {
			case <-done:
				r.on.Store(false)
				return
			case <-time.After(d):
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// opOfRequest names the service operation a request is.
func opOfRequest(req *http.Request) string {
	switch p := req.URL.Path; {
	case p == "/v1/identify":
		return opNames[opIdentify]
	case p == "/v1/identify/batch":
		return opNames[opBatch]
	case p == "/v1/enroll":
		return opNames[opEnroll]
	case strings.HasPrefix(p, "/v1/subjects/"):
		return opNames[opDelete]
	}
	return "other"
}

// wrap times one HTTP tier ("router" or "serve") from outside. Requests
// without the benchmark's headers — health polls, the replication
// stream — pass through untimed.
func (r *recorder) wrap(tier, node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		request, err := strconv.ParseInt(req.Header.Get(hdrRequest), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(hdrParent), 10, 64)
		id, start := r.open()
		req.Header.Set(hdrParent, strconv.FormatInt(id, 10))
		op := opOfRequest(req)
		write := tier == "serve" && (op == opNames[opEnroll] || op == opNames[opDelete])
		if write {
			r.serving.Store(request, id)
		}
		ctx := context.WithValue(req.Context(), spanKey{}, spanRef{request: request, parent: id})
		next.ServeHTTP(w, req.WithContext(ctx))
		if write {
			r.serving.Delete(request)
		}
		r.close(span{ID: id, Parent: parent, Request: request, Name: tier + "." + op, Node: node, Start: start})
	})
}

// engineSpan times one engine call. ref is zero when the call did not
// come from a traced request (the oracle, a probe), and then nothing is
// recorded.
func (r *recorder) engineSpan(ref spanRef, name, node string, call func()) {
	if ref.request == 0 {
		call()
		return
	}
	id, start := r.open()
	call()
	r.close(span{ID: id, Parent: ref.parent, Request: ref.request, Name: name, Node: node, Start: start})
}

func refOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// refOfSubject finds the traced write request that names this subject.
func (r *recorder) refOfSubject(id string) spanRef {
	request, ok := r.subjects.Load(id)
	if !ok {
		return spanRef{}
	}
	parent, _ := r.serving.Load(request)
	p, _ := parent.(int64)
	return spanRef{request: request.(int64), parent: p}
}

// tracedLive decorates a live engine: every method forwards through the
// embedded engine (the ANN and precision surfaces included) and the
// four calls on the request path are timed.
type tracedLive struct {
	*live.Engine
	rec  *recorder
	node string
}

func (t *tracedLive) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) (out []gallery.Candidate, err error) {
	t.rec.engineSpan(refOf(ctx), "live.topk", t.node, func() { out, err = t.Engine.TopKCtx(ctx, probe, k, parallelism) })
	return
}

func (t *tracedLive) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) (out [][]gallery.Candidate, err error) {
	t.rec.engineSpan(refOf(ctx), "live.queryall", t.node, func() { out, err = t.Engine.QueryAllCtx(ctx, probes, k, parallelism) })
	return
}

func (t *tracedLive) Enroll(id string, fingerprint []float64) (err error) {
	t.rec.engineSpan(t.rec.refOfSubject(id), "live.enroll", t.node, func() { err = t.Engine.Enroll(id, fingerprint) })
	return
}

func (t *tracedLive) Delete(id string) (err error) {
	t.rec.engineSpan(t.rec.refOfSubject(id), "live.delete", t.node, func() { err = t.Engine.Delete(id) })
	return
}

// tracedReplica decorates a replica's read surface the same way; its
// writes arrive over the replication stream and are not visible from
// outside.
type tracedReplica struct {
	*replicate.Replica
	rec  *recorder
	node string
}

func (t *tracedReplica) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) (out []gallery.Candidate, err error) {
	t.rec.engineSpan(refOf(ctx), "live.topk", t.node, func() { out, err = t.Replica.TopKCtx(ctx, probe, k, parallelism) })
	return
}

func (t *tracedReplica) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) (out [][]gallery.Candidate, err error) {
	t.rec.engineSpan(refOf(ctx), "live.queryall", t.node, func() { out, err = t.Replica.QueryAllCtx(ctx, probes, k, parallelism) })
	return
}

// tracedStore decorates the read-only sharded store.
type tracedStore struct {
	*shard.Store
	rec *recorder
}

func (t *tracedStore) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) (out []gallery.Candidate, err error) {
	t.rec.engineSpan(refOf(ctx), "shard.topk", "", func() { out, err = t.Store.TopKCtx(ctx, probe, k, parallelism) })
	return
}

func (t *tracedStore) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) (out [][]gallery.Candidate, err error) {
	t.rec.engineSpan(refOf(ctx), "shard.queryall", "", func() { out, err = t.Store.QueryAllCtx(ctx, probes, k, parallelism) })
	return
}

// ---- analysis ----

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its child spans cover (overlapping children are counted
// once), in milliseconds.
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// splitByOverlap splits reads into those that overlap no write interval
// and those that overlap at least one. Intervals touching at an
// endpoint do not overlap.
func splitByOverlap(reads, writes []span) (clear, overlapped []span) {
	sort.Slice(writes, func(i, j int) bool { return writes[i].Start < writes[j].Start })
	// maxEnd[i] is the latest End among writes[0..i], so one binary
	// search answers "does any write that starts before the read ends
	// also end after the read starts".
	maxEnd := make([]int64, len(writes))
	for i, w := range writes {
		maxEnd[i] = w.End
		if i > 0 && maxEnd[i-1] > w.End {
			maxEnd[i] = maxEnd[i-1]
		}
	}
	for _, r := range reads {
		i := sort.Search(len(writes), func(i int) bool { return writes[i].Start >= r.End })
		if i > 0 && maxEnd[i-1] > r.Start {
			overlapped = append(overlapped, r)
		} else {
			clear = append(clear, r)
		}
	}
	return clear, overlapped
}

// writeTrace writes the spans of one workload as a JSON array.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
