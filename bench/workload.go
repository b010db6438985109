package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
)

// The shape every workload shares (see README.md, "Common shape").
const (
	features   = 100 // fingerprint dimensionality
	centres    = 64  // mixture components: site/population structure
	topK       = 5   // candidates asked for per probe
	batchSize  = 16  // probes per batch request
	shardCount = 4   // shards per store
	// noiseSigma is the session noise added to an enrolled fingerprint
	// to make its probe. Fingerprints have variance 2 per feature
	// (centre + individual component), so a probe correlates ~0.98 with
	// its subject and at most ~0.8 with anyone else in a 100k gallery:
	// the exact scan's top-1 is always the true subject, which is what
	// lets every answer be checked.
	noiseSigma = 0.3
	// freshEvery marks one identify in freshEvery on mixed-1k as a
	// fresh read (X-Max-Staleness-Seconds: 0), which the router can only
	// serve from the primary — the reads that contend with enrolls on
	// one engine.
	freshEvery = 4
)

// opKind is one request type of the service.
type opKind int

const (
	opIdentify opKind = iota
	opEnroll
	opDelete
	opBatch
	opKinds
)

var opNames = [opKinds]string{"identify", "enroll", "delete", "batch"}

// workload is one traffic mix over one stack.
type workload struct {
	name string
	why  string
	// subjects is the base gallery size; smoke runs shrink the 100k
	// stores to 10k.
	subjects int
	clients  int
	// read is the read request the latency metrics are about. It also
	// decides the stack: identifies go through router → serve → live
	// engine, batches through serve → read-only store.
	read opKind
	// warmup is the total warm-up op count; ops the per-client measured
	// op count of the issue's full-scale run, which -ops-scale scales
	// (the contract's runs are bounded by -seconds instead).
	warmup, ops int
	mixed       bool // writes beside reads, plus a WAL-shipping replica
	ann         bool // IVF index, nprobe 16
	// tailPct is the highest latency percentile with ten samples beyond
	// it in a 15 s run: 99 for single identifies, 95 for batches.
	tailPct float64
}

// compactAfter is the background-compaction threshold of the primary
// and, as an operator passing one -compact-after to every node would
// have it, of the replica on mixed-1k. Warm-up leaves ~550 records in
// the log and a 15 s phase at ~365 writes/s adds ~5,500, so every run
// folds the overlay at 1,750, 3,500 and 5,250 records and would need
// 16 % more writes for a fourth fold: a run covers three full cycles and
// no run-to-run difference in speed changes how many. A much smaller
// threshold switches generations more often than a tailing replica
// survives: a replica even one record behind at the switch must
// re-bootstrap from a snapshot, and at 500 it did so in two runs of
// five, which made throughput bimodal.
const compactAfter = 1750

var workloads = []workload{
	{
		name: "read-1k", subjects: 1000, clients: 2, read: opIdentify, warmup: 10000, ops: 60000, tailPct: 99,
		why: "1k scan is a small share of a request, so router hop, HTTP, JSON and admission dominate: router/serve changes show here, scan-kernel changes must not",
	},
	{
		name: "mixed-1k", subjects: 1000, clients: 2, read: opIdentify, warmup: 5000, ops: 35000, mixed: true, tailPct: 99,
		why: "89/10/1 identify/enroll/delete beside a replica: writes hold the engine lock across fsync, overlay and tombstones grow between compactions; lock and commit-path changes show here",
	},
	{
		name: "batch-exact-100k", subjects: 100000, clients: 1, read: opBatch, warmup: 50, ops: 600, tailPct: 95,
		why: "16-probe batches on a 100k exact f64 scan: kernel, heap selection and shard merge are >95% of a request, so scan/parallel/merge changes show here and HTTP/JSON changes do not",
	},
	{
		name: "batch-ivf-100k", subjects: 100000, clients: 1, read: opBatch, warmup: 250, ops: 2500, ann: true, tailPct: 95,
		why: "same store through IVF (RankCells, gather Dot8, exact rescore): a change tuned for the streaming scan can help batch-exact and hurt this one, so both are watched",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dataset is the seeded population: 64 cluster centres plus, per
// subject, an individual component. A subject's fingerprint is a pure
// function of (seed, subject index), so nothing but the centres is kept
// in memory and the heap metric measures the system, not the generator.
type dataset struct {
	seed   uint64
	centre [centres][]float64
}

func newDataset(seed int64) *dataset {
	d := &dataset{seed: uint64(seed)}
	rng := rand.New(rand.NewPCG(d.seed, 0x63656e74726573)) // "centres"
	for c := range d.centre {
		d.centre[c] = make([]float64, features)
		for f := range d.centre[c] {
			d.centre[c][f] = rng.NormFloat64()
		}
	}
	return d
}

// subjectRNG is a reseedable generator, so drawing one subject's
// fingerprint allocates nothing.
type subjectRNG struct {
	pcg rand.PCG
	rng *rand.Rand
}

func newSubjectRNG() *subjectRNG {
	g := &subjectRNG{}
	g.rng = rand.New(&g.pcg)
	return g
}

// fingerprint writes subject i's enrolled fingerprint into dst.
func (d *dataset) fingerprint(g *subjectRNG, i int, dst []float64) {
	g.pcg.Seed(d.seed, uint64(i)+1)
	c := d.centre[g.rng.IntN(centres)]
	for f := range dst {
		dst[f] = c[f] + g.rng.NormFloat64()
	}
}

func subjectID(i int) string { return fmt.Sprintf("s%06d", i) }

// request is one generated operation: what to send and what a correct
// answer must name.
type request struct {
	kind   opKind
	method string
	path   string
	// fresh marks an identify that demands staleness 0.
	fresh bool
	// payload is marshalled (and the marshalling timed) by the client.
	payload any
	// truth holds, per probe, the index of the subject whose fingerprint
	// the probe was drawn from: the required top-1.
	truth []int
	// subject is the ID an enroll or delete names.
	subject string
}

type identifyPayload struct {
	Probe []float64 `json:"probe"`
	K     int       `json:"k"`
}

type batchPayload struct {
	Probes [][]float64 `json:"probes"`
	K      int         `json:"k"`
}

type enrollPayload struct {
	ID          string    `json:"id"`
	Fingerprint []float64 `json:"fingerprint"`
}

// body renders the request body; deletes have none.
func (r *request) body() ([]byte, error) {
	if r.payload == nil {
		return nil, nil
	}
	return json.Marshal(r.payload)
}

// clientGen is one client's request stream: a pure function of
// (seed, workload, client). State carried between requests (the
// client's own live enrolls) advances the same way on every run because
// the loop is closed and every operation succeeds.
type clientGen struct {
	d      *dataset
	w      workload
	client int
	rng    *rand.Rand
	sub    *subjectRNG
	// own lists the subjects this client enrolled and has not deleted.
	own     []string
	nextNew int
}

func newClientGen(d *dataset, w workload, client int) *clientGen {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", w.name, client)
	return &clientGen{
		d: d, w: w, client: client,
		rng: rand.New(rand.NewPCG(d.seed, h.Sum64())),
		sub: newSubjectRNG(),
	}
}

// probe draws a base subject and returns its fingerprint plus session
// noise.
func (c *clientGen) probe() (int, []float64) {
	s := c.rng.IntN(c.w.subjects)
	p := make([]float64, features)
	c.d.fingerprint(c.sub, s, p)
	for f := range p {
		p[f] += noiseSigma * c.rng.NormFloat64()
	}
	return s, p
}

func (c *clientGen) next() request {
	if c.w.read == opBatch {
		r := request{kind: opBatch, method: http.MethodPost, path: "/v1/identify/batch", truth: make([]int, batchSize)}
		probes := make([][]float64, batchSize)
		for j := range probes {
			r.truth[j], probes[j] = c.probe()
		}
		r.payload = batchPayload{Probes: probes, K: topK}
		return r
	}
	if c.w.mixed {
		switch roll := c.rng.IntN(100); {
		case roll < 10:
			return c.enroll()
		case roll < 11 && len(c.own) > 0:
			i := c.rng.IntN(len(c.own))
			id := c.own[i]
			c.own[i] = c.own[len(c.own)-1]
			c.own = c.own[:len(c.own)-1]
			return request{kind: opDelete, method: http.MethodDelete, path: "/v1/subjects/" + id, subject: id}
		}
	}
	s, p := c.probe()
	return request{
		kind: opIdentify, method: http.MethodPost, path: "/v1/identify",
		fresh:   c.w.mixed && c.rng.IntN(freshEvery) == 0,
		payload: identifyPayload{Probe: p, K: topK},
		truth:   []int{s},
	}
}

// enroll draws a new subject from the same mixture, in an index range
// of this client's own beyond the base gallery.
func (c *clientGen) enroll() request {
	id := fmt.Sprintf("n%d-%07d", c.client, c.nextNew)
	fp := make([]float64, features)
	c.d.fingerprint(c.sub, c.w.subjects+(c.client+1)*10_000_000+c.nextNew, fp)
	c.nextNew++
	c.own = append(c.own, id)
	return request{
		kind: opEnroll, method: http.MethodPost, path: "/v1/enroll",
		payload: enrollPayload{ID: id, Fingerprint: fp},
		subject: id,
	}
}
