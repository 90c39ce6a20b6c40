//go:build race

package spatial

// raceEnabled reports whether the race detector is instrumenting this
// build; its shadow-memory bookkeeping allocates, so allocation-budget
// assertions are skipped under -race.
const raceEnabled = true
