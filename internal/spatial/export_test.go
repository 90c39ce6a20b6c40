package spatial

// RaceEnabled lets the external test package skip allocation ceilings
// under the race detector, as the in-package ones do.
const RaceEnabled = raceEnabled

// PlanCost lets the external test package price a Predict result the
// way the planner does.
var PlanCost = planCost

// FreshSharedPool lets the external test package measure allocation on
// a process pool no earlier test has filled.
var FreshSharedPool = freshSharedPool
