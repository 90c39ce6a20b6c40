//go:build !race

package dataset

// raceEnabled reports whether the race detector is instrumenting this
// build; see race_enabled_test.go.
const raceEnabled = false
