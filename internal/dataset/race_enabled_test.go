//go:build race

package dataset

// raceEnabled reports whether the race detector is instrumenting this
// build; its shadow-memory bookkeeping allocates, so allocation-budget
// assertions are skipped under -race.
const raceEnabled = true
