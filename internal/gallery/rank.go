package gallery

import (
	"math"
	"slices"
)

// Ranker is a bounded top-k selector over a streamed candidate
// sequence: it holds at most k candidates and, once full, keeps the
// current worst at the root of a binary heap so each further candidate
// is admitted or rejected against a single threshold. Offer is O(log k)
// on admission and O(1) on rejection, replacing the O(k) shifting of
// binary-search insertion on the scan hot path. It ranks under
// BetterByID, a strict total order, which makes the selected set — and
// the final ranking — independent of the offer order.
type Ranker struct {
	k int
	h []Candidate // worst-at-root heap once len == k
}

// NewRanker returns a selector keeping the top k candidates under
// BetterByID. k must be positive.
func NewRanker(k int) *Ranker {
	return &Ranker{k: k, h: make([]Candidate, 0, k)}
}

// Full reports whether the selector holds k candidates — only then
// does a candidate have to outrank the held worst to be admitted.
func (r *Ranker) Full() bool { return len(r.h) == r.k }

// worse reports whether r.h[i] is outranked by r.h[j] — the heap order,
// with the worst candidate at the root.
func (r *Ranker) worse(i, j int) bool { return BetterByID(r.h[j], r.h[i]) }

// siftDown restores the worst-at-root invariant below node i.
func (r *Ranker) siftDown(i int) {
	n := len(r.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if rt := l + 1; rt < n && r.worse(rt, l) {
			m = rt
		}
		if !r.worse(m, i) {
			return
		}
		r.h[i], r.h[m] = r.h[m], r.h[i]
		i = m
	}
}

// Offer considers one candidate: admitted while the selector is not yet
// full, otherwise admitted only if it outranks the current threshold
// (which it then evicts).
func (r *Ranker) Offer(c Candidate) {
	if len(r.h) < r.k {
		r.h = append(r.h, c)
		if len(r.h) == r.k {
			for i := r.k/2 - 1; i >= 0; i-- {
				r.siftDown(i)
			}
		}
		return
	}
	if !BetterByID(c, r.h[0]) {
		return
	}
	r.h[0] = c
	r.siftDown(0)
}

// OfferDots offers record t's score dots[t]*inv for every t, rejecting
// in one compare each score below the cut — the threshold's score once
// the selector is full, −Inf before. Only a score that clears the cut
// calls at(t) for the record's candidate index and subject ID, and is
// offered unless ok is false (a masked record). Because a candidate
// below the threshold's score cannot outrank it, the selection is the
// same as offering every unmasked record; NaN scores are never below
// the cut and reach Offer as they would.
func (r *Ranker) OfferDots(dots []float64, inv float64, at func(t int) (index int, id string, ok bool)) {
	cut := math.Inf(-1)
	if r.Full() {
		cut = r.h[0].Score
	}
	for t, v := range dots {
		sc := v * inv
		if sc < cut {
			continue
		}
		if i, id, ok := at(t); ok {
			r.Offer(Candidate{Index: i, ID: id, Score: sc})
			if r.Full() {
				cut = r.h[0].Score
			}
		}
	}
}

// Ranked returns the held candidates best-first. It sorts the internal
// buffer in place, without allocating; the Ranker must not be offered
// further candidates afterwards.
func (r *Ranker) Ranked() []Candidate {
	slices.SortFunc(r.h, func(a, b Candidate) int {
		switch {
		case BetterByID(a, b):
			return -1
		case BetterByID(b, a):
			return 1
		}
		return 0
	})
	return r.h
}

// RankMergeLists merges any number of best-first ranked lists into one
// best-first list of at most k candidates via a tournament: a small
// heap over the list heads pops the global best and advances that list,
// so the merge is O(total·log lists) instead of the O(total·k) of
// folding pairwise bounded merges. Because BetterByID is a strict total
// order and (in every caller) no candidate appears in two lists, the
// result is independent of the order and grouping of the input lists —
// the determinism the sharded engine's equivalence tests pin. Exact
// duplicates, if a caller ever produced them, break ties by input list
// position, which keeps even that case deterministic. Input lists are
// not mutated.
func RankMergeLists(lists [][]Candidate, k int) []Candidate {
	type head struct {
		list []Candidate
		li   int // original list position, tiebreak of last resort
		pos  int
	}
	heads := make([]head, 0, len(lists))
	total := 0
	for li, l := range lists {
		if len(l) > 0 {
			heads = append(heads, head{list: l, li: li})
			total += len(l)
		}
	}
	ahead := func(a, b head) bool {
		ca, cb := a.list[a.pos], b.list[b.pos]
		if BetterByID(ca, cb) {
			return true
		}
		if BetterByID(cb, ca) {
			return false
		}
		return a.li < b.li
	}
	siftDown := func(i int) {
		n := len(heads)
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			m := l
			if rt := l + 1; rt < n && ahead(heads[rt], heads[l]) {
				m = rt
			}
			if !ahead(heads[m], heads[i]) {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Candidate, 0, min(k, total))
	for len(heads) > 0 && len(out) < k {
		out = append(out, heads[0].list[heads[0].pos])
		heads[0].pos++
		if heads[0].pos == len(heads[0].list) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		if len(heads) > 1 {
			siftDown(0)
		}
	}
	return out
}
