//go:build !race

package experiments

// raceEnabled reports whether the race detector instruments this test
// binary; timing assertions widen under it (see cancelBudget).
const raceEnabled = false
