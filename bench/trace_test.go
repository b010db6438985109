package main

import "testing"

func TestSelfTimes(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Start: 0, End: 10 * ms},                // client
		{ID: 2, Parent: 1, Start: 1 * ms, End: 8 * ms}, // router
		{ID: 3, Parent: 2, Start: 2 * ms, End: 7 * ms}, // serve
		{ID: 4, Parent: 3, Start: 3 * ms, End: 5 * ms}, // engine
		// Two children that overlap each other are counted once, and a
		// child reaching past its parent is clipped to it.
		{ID: 5, Start: 0, End: 10 * ms},
		{ID: 6, Parent: 5, Start: 1 * ms, End: 4 * ms},
		{ID: 7, Parent: 5, Start: 3 * ms, End: 6 * ms},
		{ID: 8, Parent: 5, Start: 9 * ms, End: 12 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]float64{1: 3, 2: 2, 3: 3, 4: 2, 5: 4, 6: 3} {
		if got := self[id]; got != want {
			t.Errorf("self time of span %d = %v ms, want %v", id, got, want)
		}
	}
	// The accounting identity of one request: the self times along the
	// chain add up to the root span.
	if sum := self[1] + self[2] + self[3] + self[4]; sum != spans[0].ms() {
		t.Errorf("self times sum to %v ms, root span is %v ms", sum, spans[0].ms())
	}
}

func TestSplitByOverlap(t *testing.T) {
	writes := []span{
		{ID: 1, Start: 100, End: 200},
		{ID: 2, Start: 50, End: 500}, // a long write that starts earlier and covers later reads
		{ID: 3, Start: 900, End: 950},
	}
	reads := []span{
		{ID: 10, Start: 0, End: 40},      // before every write
		{ID: 11, Start: 0, End: 50},      // touches a write's start: no overlap
		{ID: 12, Start: 120, End: 130},   // inside two writes
		{ID: 13, Start: 450, End: 600},   // overlaps only the long write's tail
		{ID: 14, Start: 500, End: 900},   // between writes, touching both ends
		{ID: 15, Start: 940, End: 1000},  // overlaps the last write
		{ID: 16, Start: 1000, End: 1100}, // after every write
	}
	clear, overlapped := splitByOverlap(reads, writes)
	ids := func(ss []span) []int64 {
		out := make([]int64, len(ss))
		for i, s := range ss {
			out[i] = s.ID
		}
		return out
	}
	if got, want := ids(clear), []int64{10, 11, 14, 16}; !equalIDs(got, want) {
		t.Errorf("clear reads = %v, want %v", got, want)
	}
	if got, want := ids(overlapped), []int64{12, 13, 15}; !equalIDs(got, want) {
		t.Errorf("overlapped reads = %v, want %v", got, want)
	}
	if c, o := splitByOverlap(reads, nil); len(c) != len(reads) || len(o) != 0 {
		t.Errorf("no writes: %d clear, %d overlapped", len(c), len(o))
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
