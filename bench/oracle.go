package main

import (
	"fmt"
	"sort"
	"strconv"

	"brainprint/internal/linalg"
	"brainprint/internal/match"
)

// oracleProbes is the size of the sample checked bit for bit before
// load starts.
const oracleProbes = 64

// checkOracle sends a seeded sample of probes through the stack's front
// door and compares every returned (id, score) with the paper's dense
// attack on the same data: match.SimilarityMatrix over the raw base
// fingerprints and the probes, match.Predict for the top-1, and the
// column sorted by (score descending, id ascending) for the rest. On the
// exact workloads ids and scores must be bit-equal; on the IVF workload
// whatever is returned must carry the bit-equal score of the subject it
// names (the index decides which records are scored, never the score).
func checkOracle(st *stack) error {
	w, d := st.w, st.d
	known := linalg.NewMatrix(features, w.subjects)
	sub, fp := newSubjectRNG(), make([]float64, features)
	for i := 0; i < w.subjects; i++ {
		d.fingerprint(sub, i, fp)
		known.SetCol(i, fp)
	}
	// A client index no load client uses, so the sample is its own
	// stream.
	gen := newClientGen(d, w, -1)
	c := newClient(st, gen, nil)
	anon := linalg.NewMatrix(features, oracleProbes)
	var answers [][]candidate
	for len(answers) < oracleProbes {
		req := gen.next()
		if req.kind != w.read {
			continue
		}
		res := c.do(&req)
		if res.class != classOK {
			return fmt.Errorf("oracle: %s failed: %s", opNames[req.kind], res.detail)
		}
		var probes [][]float64
		switch p := req.payload.(type) {
		case identifyPayload:
			probes = [][]float64{p.Probe}
		case batchPayload:
			probes = p.Probes
		}
		for j := 0; j < len(probes) && len(answers) < oracleProbes; j++ {
			anon.SetCol(len(answers), probes[j])
			answers = append(answers, res.ranked[j])
		}
	}
	sim, err := match.SimilarityMatrix(known, anon)
	if err != nil {
		return err
	}
	predicted := match.Predict(sim)
	for j, got := range answers {
		score := func(i int) float64 { return sim.At(i, j) }
		if w.ann {
			for _, cand := range got {
				i, ok := subjectIndex(cand.ID)
				if !ok || i >= w.subjects || cand.Score != score(i) {
					return fmt.Errorf("oracle: probe %d: %s scored %v, the dense attack disagrees", j, cand.ID, cand.Score)
				}
			}
			continue
		}
		if got[0].ID != subjectID(predicted[j]) {
			return fmt.Errorf("oracle: probe %d: top-1 %s, match.Predict says %s", j, got[0].ID, subjectID(predicted[j]))
		}
		// The dense column's top k under (score descending, id
		// ascending); subject ids are zero-padded, so index order is id
		// order.
		top := make([]int, 0, topK+1)
		for i := 0; i < w.subjects; i++ {
			at := sort.Search(len(top), func(r int) bool { return score(i) > score(top[r]) })
			if at < topK {
				top = append(top[:at], append([]int{i}, top[at:]...)...)
				top = top[:min(len(top), topK)]
			}
		}
		for r, cand := range got {
			if want := top[r]; cand.ID != subjectID(want) || cand.Score != score(want) {
				return fmt.Errorf("oracle: probe %d rank %d: got %s %v, dense attack says %s %v",
					j, r, cand.ID, cand.Score, subjectID(want), score(want))
			}
		}
	}
	return nil
}

// subjectIndex inverts subjectID.
func subjectIndex(id string) (int, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	i, err := strconv.Atoi(id[1:])
	return i, err == nil
}
