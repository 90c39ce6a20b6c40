#!/bin/sh
# check.sh — the expanded tier-1 gate: gofmt, vet, build, race-enabled
# tests, an observability smoke test and a short parser fuzz. Run from
# the repo root (or via `make check`).
#
# The original tier-1 gate was `go build ./... && go test ./...`; this
# script is a strict superset and is what CI and pre-commit runs should
# call.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== serve smoke (scraped /metrics counters == final Stats) =="
go test -run 'TestServeSmoke' -count=1 ./cmd/mwsjoin

echo "== chain recovery + speculative equivalence under -race (pinned seeds) =="
# Deterministic by construction (seeded rand.NewPCG workloads, kill
# points at every job boundary); -count=1 defeats the test cache so the
# race detector actually re-exercises the speculative backup goroutines.
go test -race -count=1 \
    -run 'TestChainKillResumeEveryBoundary|TestSpeculativeEquivalence|TestSpeculativeWithRetries|TestFaultInjectionStatsBitEqual' \
    ./internal/mapreduce
go test -race -count=1 \
    -run 'TestKillResumeEveryJobBoundary|TestKillResumeRandomizedWorkload|TestSpeculativeSpatialEquivalence' \
    ./internal/spatial

echo "== adaptive-partition battery under -race (bit-identity, faults, kill/resume, 5x skew) =="
# The skewed-workload equivalence battery: adaptive vs uniform tuple
# identity across methods × parallelism, fault injection, kill/resume
# at every chain boundary, per-cell R-tree-vs-sweep identity, and the
# ≥5× max/median reducer-skew improvement; -count=1 defeats the cache.
go test -race -count=1 \
    -run 'TestAdaptiveUniformBitIdentical|TestAdaptiveFaultInjectionBitIdentical|TestAdaptiveKillResumeEveryBoundary|TestAdaptiveSkewImprovement|TestJoinSortedDenseMatchesSweep|TestCascadeRTreeEscalationBitIdentical' \
    ./internal/spatial
go test -race -count=1 -run 'TestBenchPR6Anchor' .

echo "== join service e2e under -race (daemon on :0, submit→poll→result→cancel) =="
# The daemon binds a free loopback port and the test drives the whole
# lifecycle over real HTTP, asserting bit-identical stats vs a serial
# run and a cache hit on resubmission; -count=1 so the race detector
# re-exercises the scheduler/worker goroutines every run.
go test -race -count=1 -run 'TestDaemonEndToEnd' ./cmd/mwsjoind
go test -race -count=1 -run 'TestServerExample' ./examples/server

echo "== observability v2 under -race (profiles, calibration loop, SLOs, slowlog) =="
# Determinism invariant (normalized profiles byte-identical across
# parallelism/faults/kill-resume), Chrome trace schema validation,
# calibration strictly tightening prediction error without changing
# results, and the daemon e2e with profiling + calibrated admission +
# slowlog/status endpoints; the ≤5% profiling-overhead acceptance bar
# lives in the committed BENCH_PR7.json anchor. -count=1 defeats the
# cache so the race detector re-exercises the server goroutines.
go test -race -count=1 ./internal/profile
go test -race -count=1 \
    -run 'TestServerProfileAndSlowlog|TestSlowlogOrderAndCap|TestServerStatusInfo|TestServerCalibratedAdmission|TestHTTPObservabilityEndpoints' \
    ./internal/server
go test -race -count=1 -run 'TestProfileCalibrateFlags' ./cmd/mwsjoin
go test -race -count=1 -run 'TestDaemonObservabilityEndToEnd' ./cmd/mwsjoind
go test -race -count=1 -run 'TestBenchPR7Anchor' .

echo "== cost-based planner battery under -race (degenerate inputs, equivalence, determinism) =="
# The DESIGN.md §4h planner gate: every degenerate input yields a valid
# finite-cost plan matching the brute-force oracle; the chosen plan is
# tuple-identical under parallelism × faults × kill/resume; planning is
# deterministic (same query + stats ⇒ same plan, fuzzed below); the
# daemon's "auto" path prices the plan that actually runs; and the
# committed BENCH_PR9.json anchor holds the planner within 1.1× of the
# best hand-picked method on the workload matrix. -count=1 defeats the
# cache so the race detector re-exercises the enumeration every run.
go test -race -count=1 \
    -run 'TestPlannerDegenerateBattery|TestPlannerEquivalenceBattery|TestPlannerDeterminism|TestPlannerPinnedGrid|TestPredictFiniteOnDegenerateInputs|TestPredictHostileCalibration|TestCalibrationFactorRejectsUnusable' \
    ./internal/spatial
go test -race -count=1 -run 'TestCalibrateDegenerateEntries' ./internal/profile
go test -race -count=1 -run 'TestSubmitAutoMethod' ./internal/server
go test -race -count=1 -run 'TestRunAutoMethod|TestExplainPlanFlag' ./cmd/mwsjoin
go test -race -count=1 -run 'TestBenchPR9Anchor' .

echo "== fuzz (FuzzPlannerDeterminism, 5s) =="
go test -run='^$' -fuzz=FuzzPlannerDeterminism -fuzztime=5s ./internal/spatial

echo "== paper-scale memory battery under -race (columnar + pooled + spill bit-identity, 1-byte budget) =="
# The DESIGN.md §4g equivalence battery: every sorted run spills under
# the deliberately tiny budget, and tuples/Stats/DFS charges must stay
# bit-identical to the boxed in-memory engine across methods ×
# parallelism × faults × speculation × kill/resume; -count=1 defeats
# the cache so the race detector re-exercises the spill/recycle paths.
go test -race -count=1 \
    -run 'TestSpillEquivalence|TestSpillBudgetThreshold|TestSpillDecodeErrorSurfaces|TestPooledEquivalence|TestPooledSpillWordCount|TestSortedRunAllocationBudget|TestColumnarSpillEquivalenceBattery|TestColumnarSpillSpeculative|TestColumnarSpillKillResume' \
    ./internal/mapreduce ./internal/spatial
go test -race -count=1 ./internal/dfs

echo "== unit-200,000 smoke (10x table scale through the memory path; timeout-guarded) =="
# Runs the BENCH_PR8 live measurement with the join at unit = 200,000
# (three 200k-rectangle relations, columnar + pooled + spilling); the
# timeout keeps a pathological regression from hanging CI.
MWSJ_BENCH_UNIT=200000 go test -count=1 -timeout 300s -run 'TestBenchPR8Anchor' .

echo "== distributed runtime under -race (SPMD equivalence, network shuffle, recovery) =="
# The DESIGN.md §4i gate: engine- and spatial-level SPMD bit-identity
# (W ∈ {1,3}, all four methods, spill/no-combiner axes, exact DFS
# reconciliation with network bytes in their own Stats family), the
# cluster package over real loopback TCP (mesh shuffle, heartbeat
# death detection, checkpoint sync + re-execution, roster hash
# cross-check), the server dispatch path, and the BufferPool misuse
# battery; -count=1 defeats the cache so the race detector
# re-exercises the exchange/rendezvous goroutines every run.
go test -race -count=1 -run 'TestDist|TestPoolDoublePut|TestPoolCrossJobReuse' ./internal/mapreduce
go test -race -count=1 -run 'TestDistributed' ./internal/spatial
go test -race -count=1 ./internal/cluster
go test -race -count=1 -run 'TestServerClusterDispatch' ./internal/server

echo "== cluster e2e under -race (daemon coordinator + 3 real worker processes, SIGKILL mid-round) =="
# Boots mwsjoind -cluster-listen plus three mwsjworker OS processes on
# loopback, submits the cascade join over HTTP, and one worker
# SIGKILLs itself before its 4th shuffle exchange (mid round 2): the
# coordinator must detect the death, sync checkpoints onto the two
# survivors, re-execute the interrupted round, and serve tuples
# bit-identical to the in-process engine.
go test -race -count=1 -run 'TestDaemonClusterEndToEnd' ./cmd/mwsjoind
go test -race -count=1 -run 'TestBenchPR10Anchor' .

echo "== fuzz (FuzzParseQuery, 5s) =="
go test -run='^$' -fuzz=FuzzParseQuery -fuzztime=5s ./internal/query

echo "== fuzz (FuzzKeyRanker, 5s) =="
go test -run='^$' -fuzz=FuzzKeyRanker -fuzztime=5s ./internal/mapreduce

echo "== fuzz (FuzzRTreeProbe, 5s) =="
go test -run='^$' -fuzz=FuzzRTreeProbe -fuzztime=5s ./internal/index

echo "== fuzz (FuzzDecodeCascadePair + FuzzDecodePartial, 5s each) =="
# The cascade's byte decoders — spill frames, mesh frames, checkpoint
# records — must reject or round-trip exactly, and never size a slab
# from a count the input claims.
go test -run='^$' -fuzz=FuzzDecodeCascadePair -fuzztime=5s ./internal/spatial
go test -run='^$' -fuzz=FuzzDecodePartial -fuzztime=5s ./internal/spatial

echo "== benchmark module (own go.mod, invisible to the root go test ./...) =="
go test -C benchmark ./...
go vet -C benchmark ./...
test -z "$(gofmt -l benchmark)"

echo "== shuffle pipeline bench smoke (1 iteration per benchmark) =="
go test -run='^$' -bench . -benchtime=1x ./internal/mapreduce

echo "== check.sh: all green =="
