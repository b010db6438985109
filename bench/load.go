package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"brainprint/internal/router"
)

// The load generator: closed loop, one goroutine and one connection per
// client, at most nproc clients. Callers of this service are scripts
// that wait for each reply before sending the next request.

// failClass says how a request ended.
type failClass int

const (
	classOK failClass = iota
	class4xx
	class5xx
	classTransport
	// classWrong is a 2xx whose body is not a well-formed answer to the
	// request: wrong candidate count or unsorted scores. It counts as a
	// failure; a well-formed answer naming the wrong subject is a top-1
	// miss instead.
	classWrong
)

type candidate struct {
	Index int     `json:"index"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// result is the outcome of one request.
type result struct {
	kind      opKind
	class     failClass
	detail    string
	ms        float64 // client span: marshal → send → response decoded
	marshalUS float64
	traced    bool          // sent while the recorder was on
	rejected  bool          // 503 "server at capacity"
	ranked    [][]candidate // one list per probe, for read requests
	hits      int           // probes whose top-1 is the true subject
}

// client is one closed-loop caller.
type client struct {
	st   *stack
	gen  *clientGen
	rec  *recorder
	http *http.Client
}

// newClient gives the client a transport of its own holding exactly one
// connection, kept alive across requests.
func newClient(st *stack, gen *clientGen, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &client{st: st, gen: gen, rec: rec, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request and checks the answer.
func (c *client) do(req *request) result {
	traced := c.rec != nil && c.rec.on.Load()
	res := result{kind: req.kind, traced: traced}
	var id, start int64
	if traced {
		id, start = c.rec.open()
		if req.subject != "" {
			c.rec.subjects.Store(req.subject, id)
			defer c.rec.subjects.Delete(req.subject)
		}
	}
	t0 := time.Now()
	body, err := req.body()
	if err != nil {
		res.class, res.detail = classTransport, err.Error()
		return res
	}
	res.marshalUS = float64(time.Since(t0)) / 1e3
	hreq, err := http.NewRequest(req.method, c.st.url+req.path, bytes.NewReader(body))
	if err != nil {
		res.class, res.detail = classTransport, err.Error()
		return res
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if req.fresh {
		hreq.Header.Set(router.HeaderMaxStaleness, "0")
	}
	if traced {
		// The client span's id doubles as the request id.
		hreq.Header.Set(hdrRequest, strconv.FormatInt(id, 10))
		hreq.Header.Set(hdrParent, strconv.FormatInt(id, 10))
	}
	resp, err := c.http.Do(hreq)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	switch {
	case err != nil:
		res.class, res.detail = classTransport, err.Error()
	case resp.StatusCode >= 500:
		res.class, res.detail = class5xx, fmt.Sprintf("%d %s", resp.StatusCode, bytes.TrimSpace(data))
		res.rejected = resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(data, []byte("at capacity"))
	case resp.StatusCode >= 400:
		res.class, res.detail = class4xx, fmt.Sprintf("%d %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		res.ranked, err = decodeRanked(req.kind, data)
		if err != nil {
			res.class, res.detail = classWrong, err.Error()
		}
	}
	res.ms = msSince(t0)
	if traced {
		c.rec.close(span{ID: id, Request: id, Name: "client." + opNames[req.kind], Start: start})
	}
	if res.class == classOK {
		c.check(req, &res)
	}
	return res
}

// decodeRanked parses a read response into one candidate list per
// probe; write responses carry nothing to rank.
func decodeRanked(kind opKind, data []byte) ([][]candidate, error) {
	switch kind {
	case opIdentify:
		var out struct {
			Candidates []candidate `json:"candidates"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, err
		}
		return [][]candidate{out.Candidates}, nil
	case opBatch:
		var out struct {
			Results [][]candidate `json:"results"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, err
		}
		return out.Results, nil
	}
	return nil, nil
}

// check verifies a read answer against the known subject of each probe:
// k candidates per probe, best first, and the true subject on top.
func (c *client) check(req *request, res *result) {
	if len(res.ranked) != len(req.truth) {
		res.class, res.detail = classWrong, fmt.Sprintf("%d rankings for %d probes", len(res.ranked), len(req.truth))
		return
	}
	for j, top := range res.ranked {
		if len(top) != topK {
			res.class, res.detail = classWrong, fmt.Sprintf("probe %d: %d candidates, want %d", j, len(top), topK)
			return
		}
		if !sort.SliceIsSorted(top, func(a, b int) bool { return top[a].Score > top[b].Score }) {
			res.class, res.detail = classWrong, fmt.Sprintf("probe %d: candidates not best-first", j)
			return
		}
		if top[0].ID == subjectID(req.truth[j]) {
			res.hits++
		}
	}
}

// phase is what one load phase measured.
type phase struct {
	wallS     float64
	attempted int
	failed    int
	fails     [classWrong + 1]int
	rejected  int
	lat       [opKinds][]float64 // successes, ms, sorted after the phase
	// untracedRead is the read requests among lat that were sent while
	// the recorder was off; tracedRead the rest. Only a traced run,
	// which switches the recorder on and off, fills both.
	untracedRead, tracedRead []float64
	failedOf                 [opKinds]int
	marshalUS                []float64
	probes                   int // probes answered
	hits                     int // of which top-1 was the true subject
	firstFails               []string
}

// stopRule ends a phase: after ops requests per client when ops > 0,
// otherwise at the deadline. Either way each client finishes the
// request it is on.
type stopRule struct {
	ops      int
	deadline time.Time
}

// runPhase drives every client until the stop rule and merges what they
// saw.
func runPhase(clients []*client, stop stopRule) *phase {
	parts := make([]*phase, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &phase{}
			for n := 0; ; n++ {
				if stop.ops > 0 && n >= stop.ops || stop.ops <= 0 && !time.Now().Before(stop.deadline) {
					break
				}
				req := c.gen.next()
				p.record(c.do(&req))
			}
			parts[i] = p
		}()
	}
	wg.Wait()
	out := &phase{wallS: time.Since(t0).Seconds()}
	for _, p := range parts {
		out.merge(p)
	}
	for k := range out.lat {
		sort.Float64s(out.lat[k])
	}
	sort.Float64s(out.marshalUS)
	sort.Float64s(out.untracedRead)
	sort.Float64s(out.tracedRead)
	return out
}

func (p *phase) record(r result) {
	p.attempted++
	p.fails[r.class]++
	p.marshalUS = append(p.marshalUS, r.marshalUS)
	if r.rejected {
		p.rejected++
	}
	if r.class != classOK {
		p.failed++
		p.failedOf[r.kind]++
		if len(p.firstFails) < 3 {
			p.firstFails = append(p.firstFails, opNames[r.kind]+": "+r.detail)
		}
		return
	}
	p.lat[r.kind] = append(p.lat[r.kind], r.ms)
	if len(r.ranked) > 0 {
		if r.traced {
			p.tracedRead = append(p.tracedRead, r.ms)
		} else {
			p.untracedRead = append(p.untracedRead, r.ms)
		}
	}
	p.probes += len(r.ranked)
	p.hits += r.hits
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.rejected += q.rejected
	p.probes += q.probes
	p.hits += q.hits
	for i := range p.fails {
		p.fails[i] += q.fails[i]
	}
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
		p.failedOf[k] += q.failedOf[k]
	}
	p.marshalUS = append(p.marshalUS, q.marshalUS...)
	p.untracedRead = append(p.untracedRead, q.untracedRead...)
	p.tracedRead = append(p.tracedRead, q.tracedRead...)
	if len(p.firstFails) < 3 {
		p.firstFails = append(p.firstFails, q.firstFails...)
	}
}

// pct is a latency percentile of one operation, failures counted as
// misses.
func (p *phase) pct(kind opKind, q float64) float64 {
	return percentile(p.lat[kind], p.failedOf[kind], q)
}

func (p *phase) throughput() float64 {
	if p.wallS == 0 {
		return 0
	}
	return float64(p.attempted-p.failed) / p.wallS
}

func (p *phase) top1Share() float64 {
	if p.probes == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.probes)
}

func (p *phase) failSummary() string {
	if p.failed == 0 {
		return "no failures"
	}
	return fmt.Sprintf("%d failed (4xx %d, 5xx %d, transport %d, malformed %d): %s",
		p.failed, p.fails[class4xx], p.fails[class5xx], p.fails[classTransport], p.fails[classWrong],
		strings.Join(p.firstFails, "; "))
}
