package main

import (
	"bytes"
	"strings"
	"testing"
)

// stream renders a client's first n requests as the bytes that go on
// the wire.
func stream(t *testing.T, seed int64, w workload, client, n int) []byte {
	t.Helper()
	gen := newClientGen(newDataset(seed), w, client)
	var out bytes.Buffer
	for i := 0; i < n; i++ {
		req := gen.next()
		body, err := req.body()
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(req.method + " " + req.path + " ")
		if req.fresh {
			out.WriteString("fresh ")
		}
		out.Write(body)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestRequestStreamIsAPureFunctionOfSeedWorkloadClient(t *testing.T) {
	for _, w := range workloads {
		n := 300
		if w.read == opBatch {
			n = 10
		}
		a, b := stream(t, 7, w, 0, n), stream(t, 7, w, 0, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same (seed, workload, client) gave different request bytes", w.name)
		}
		if bytes.Equal(a, stream(t, 8, w, 0, n)) {
			t.Errorf("%s: another seed gave the same requests", w.name)
		}
		if bytes.Equal(a, stream(t, 7, w, 1, n)) {
			t.Errorf("%s: another client gave the same requests", w.name)
		}
	}
	read, _ := findWorkload("read-1k")
	mixed, _ := findWorkload("mixed-1k")
	if bytes.Equal(stream(t, 7, read, 0, 50), stream(t, 7, mixed, 0, 50)) {
		t.Error("two workloads share a request stream")
	}
}

func TestMixedStreamDeletesOnlyItsOwnLiveEnrolls(t *testing.T) {
	w, _ := findWorkload("mixed-1k")
	gen := newClientGen(newDataset(3), w, 1)
	live := map[string]bool{}
	var count [opKinds]int
	fresh := 0
	for i := 0; i < 20000; i++ {
		req := gen.next()
		count[req.kind]++
		switch req.kind {
		case opEnroll:
			if live[req.subject] || !strings.HasPrefix(req.subject, "n1-") {
				t.Fatalf("op %d enrolls %q: not a new subject of client 1", i, req.subject)
			}
			live[req.subject] = true
		case opDelete:
			if !live[req.subject] {
				t.Fatalf("op %d deletes %q, which this client does not have enrolled", i, req.subject)
			}
			delete(live, req.subject)
		case opIdentify:
			if req.fresh {
				fresh++
			}
		}
	}
	// 89 / 10 / 1 percent, and one identify in four fresh.
	for kind, want := range map[opKind]float64{opIdentify: 0.89, opEnroll: 0.10, opDelete: 0.01} {
		if got := float64(count[kind]) / 20000; got < want*0.8 || got > want*1.2 {
			t.Errorf("%s share %.4f, want about %.2f", opNames[kind], got, want)
		}
	}
	if got := float64(fresh) / float64(count[opIdentify]); got < 0.22 || got > 0.28 {
		t.Errorf("fresh share of identifies %.3f, want about 0.25", got)
	}
}

func TestProbeStaysNearestItsSubject(t *testing.T) {
	w, _ := findWorkload("read-1k")
	d := newDataset(5)
	gen := newClientGen(d, w, 0)
	sub, fp := newSubjectRNG(), make([]float64, features)
	for i := 0; i < 20; i++ {
		s, p := gen.probe()
		best, bestDist := -1, 0.0
		for c := 0; c < w.subjects; c++ {
			d.fingerprint(sub, c, fp)
			dist := 0.0
			for f := range fp {
				dist += (fp[f] - p[f]) * (fp[f] - p[f])
			}
			if best < 0 || dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best != s {
			t.Fatalf("probe of subject %d is nearest subject %d", s, best)
		}
	}
}
