//go:build race

package gallery

// raceEnabled reports whether the race detector instruments this test
// binary: under it sync.Pool drops a quarter of what is put back, so
// allocation counts are not asserted.
const raceEnabled = true
