package spatial

import (
	"math"
	"testing"
)

// RaceEnabled lets the external test package skip allocation ceilings
// under the race detector, as the in-package ones do.
const RaceEnabled = raceEnabled

// PlanCost lets the external test package price a Predict result the
// way the planner does.
var PlanCost = planCost

// withRTreeFrom makes the plans built during the test switch their
// slot index to the R-tree from n records, and restores the default
// when the test ends. rtreeAlways and rtreeNever are the two settings
// the tests use.
func withRTreeFrom(t testing.TB, n int) {
	t.Helper()
	rtreeFromOverride = n
	t.Cleanup(func() { rtreeFromOverride = 0 })
}

const (
	rtreeAlways = 1           // every slot past the linear scan
	rtreeNever  = math.MaxInt // the bucket grid at every size
)
