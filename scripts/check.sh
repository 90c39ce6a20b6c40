#!/bin/sh
# check.sh — the expanded tier-1 gate: gofmt, vet, build, every test
# once (race-enabled where it matters), the paper-scale smoke, short
# fuzz runs of every fuzz target, the benchmark module's own checks and
# a bench smoke. Run from the repo root (or via `make check`).
#
# The original tier-1 gate was `go build ./... && go test ./...`; this
# script is a strict superset and is what CI and pre-commit runs should
# call. Why a battery exists is said in the doc comment of its test,
# not here.
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

echo "== the engine stack writes no registry (Stats is its record; profile.Publish exports it) =="
if go list -deps ./internal/mapreduce ./internal/dfs ./internal/spatial | grep -qx 'mwsjoin/internal/metrics'; then
    echo "internal/mapreduce, internal/dfs or internal/spatial depends on mwsjoin/internal/metrics" >&2
    exit 1
fi

echo "== one HTTP surface: only the daemon's handler links the profiler; the registry links no net/http =="
pprof_users=$(go list -f '{{.ImportPath}} {{join .Deps " "}}' ./... |
    awk '$1 != "mwsjoin/internal/server" && $1 != "mwsjoin/cmd/mwsjoind" && $1 != "mwsjoin/examples/server" && / net\/http\/pprof( |$)/ { print $1 }')
if [ -n "$pprof_users" ]; then
    echo "these packages depend on net/http/pprof, which registers /debug/pprof/ on http.DefaultServeMux:" >&2
    echo "$pprof_users" >&2
    exit 1
fi
if go list -deps ./internal/metrics | grep -qx 'net/http'; then
    echo "internal/metrics depends on net/http" >&2
    exit 1
fi

echo "== spans carry time, Stats carry counts: the DFS attributes no I/O to a span =="
if go list -deps ./internal/dfs | grep -qx 'mwsjoin/internal/trace'; then
    echo "internal/dfs depends on mwsjoin/internal/trace" >&2
    exit 1
fi

echo "== benchmark module builds (own go.mod, frozen: fail here, not after the race pass) =="
# -o /dev/null: the module is one main package, which a bare build
# would write into benchmark/ as an executable.
go build -C benchmark -o /dev/null ./...
go vet -C benchmark ./...

echo "== go test -race (every package but the table harness) =="
# -count=1 defeats the test cache so the race detector re-exercises the
# recycle, exchange and server goroutines every run.
# cmd/benchtables and internal/bench are left out: a single-goroutine
# sweep over an engine whose own packages are race-tested here, and
# under -race their 366 CPU-seconds starve the timing-sensitive daemon
# and cluster tests of this pass on a small host.
go test -race -count=1 $(go list ./... | grep -v -e '/cmd/benchtables$' -e '/internal/bench$')

# require_tests NAMES PKGS...: a renamed test matches nothing, and go
# test passes "no tests to run": every name of the |-list NAMES must be
# a test or fuzz target the packages list.
require_tests() {
    names=$1
    shift
    want=$(echo "$names" | tr '|' '\n' | wc -l)
    found=$(go test -list "^($names)\$" "$@" | grep -cE '^(Test|Fuzz)' || true)
    if [ "$found" -lt "$want" ]; then
        echo "the packages list $found of the $want test names $names" >&2
        exit 1
    fi
}

echo "== allocation and traffic guards (the allocation ones skip under -race, whose shadow memory allocates) =="
guards='TestCascadeAllocationBudget|TestCascadeAllocationAtBenchmarkShape|TestCRepLAllocationBudget|TestCRepLAllocationAtBenchmarkShape|TestExecuteWarmAllocation|TestClusterAllocationCeiling|TestClusterAllocationAtBenchmarkShape|TestSortedRunAllocationBudget|TestReduceOutputAllocation|TestMeshRecyclesFrameChunks|TestDistPayloadsRecycled|TestCheckpointAllocatesPerSegment|TestResultSlabBound|TestClusterShipsBoundaryPairsAtBenchmarkShape|TestThreeWorkersShipBoundaryPairsAtBenchmarkShape|TestCascadeBytesAtBenchmarkShape|TestReadAllocation|TestSmallFileReadsInItsOwnSize|TestPartialStoreKeepsPageTable'
guard_pkgs='./internal/spatial ./internal/cluster ./internal/mapreduce ./internal/dataset'
require_tests "$guards" $guard_pkgs
go test -count=1 -run "^($guards)\$" $guard_pkgs

echo "== sweep order across map splits and the whole-join oracle (the race pass above ran them; a rename must not drop them) =="
require_tests 'TestCascadeTieBreakAcrossBlocks|FuzzJoin' ./internal/spatial

echo "== result pages: the slab's bytes, compact and encoding/json's (the race pass above ran them; a rename must not drop them) =="
require_tests 'TestResultPageAllocs|TestResultPageGolden|TestCacheChargesSlabBytes' ./internal/server

echo "== liveness (a worker is alive while its control connection delivers bytes; five race runs) =="
liveness='TestSilentWorkerDeclaredDead|TestStalledReaderKeepsWorkerAlive|TestSlowResultKeepsWorkerAlive|TestClusterWorkerStatusAndGauges|TestReplacedWorkerIsReshipped'
require_tests "$liveness" ./internal/cluster
go test -race -count=5 -run "^($liveness)\$" ./internal/cluster

echo "== go test (table harness: paper tables at tiny scale, Table 2 against BENCH_PR2.json) =="
go test -count=1 ./cmd/benchtables ./internal/bench

echo "== unit-200,000 smoke (10x table scale through C-Rep-L, in memory; timeout-guarded) =="
# The timeout keeps a pathological regression from hanging CI.
MWSJ_BENCH_UNIT=200000 go test -count=1 -timeout 300s -run 'TestPaperScaleSmoke' .

echo "== fuzz (every target go test -list '^Fuzz' ./... finds, 5s each) =="
# The loop lives in the Makefile (`make fuzz` runs it at 30s): it lists
# the targets, so one added tomorrow is fuzzed here without an edit.
make fuzz-5s

echo "== benchmark module tests (own go.mod, invisible to the root go test ./...) =="
go test -C benchmark ./...
test -z "$(gofmt -l benchmark)"

echo "== relation load, DFS row read, grid routing and adaptive build, shuffle pipeline, sweep kernel, strip probe, R-tree, mark round, planner, sweep order, relation staging, control-plane, mesh, result hash and result page bench smoke (1 iteration per benchmark) =="
go test -run='^$' -bench BenchmarkReadFile -benchtime=1x ./internal/dataset
go test -run='^$' -bench BenchmarkViewMBBs -benchtime=1x ./internal/dfs
go test -run='^$' -bench 'BenchmarkSplit|BenchmarkReplicateF2|BenchmarkBuildAdaptive' -benchtime=1x ./internal/grid
go test -run='^$' -bench . -benchtime=1x ./internal/mapreduce
go test -run='^$' -bench 'BenchmarkJoinSortedCells|BenchmarkStripProbe' -benchtime=1x ./internal/sweep
go test -run='^$' -bench 'BenchmarkRTree(Build|Probe)$' -benchtime=1x ./internal/index
go test -run='^$' -bench 'BenchmarkPlanQuery|BenchmarkMarkCell|BenchmarkSweepOrder|BenchmarkStageRows' -benchtime=1x ./internal/spatial
go test -run='^$' -bench 'BenchmarkControlPlane|BenchmarkMeshAllToAll|BenchmarkHashTuples' -benchtime=1x ./internal/cluster
go test -run='^$' -bench 'BenchmarkResultPage' -benchtime=1x ./internal/server

echo "== check.sh: all green =="
