#!/usr/bin/env bash
# Builds the harness from the checkout's sources and runs it. Every
# file the build and the run write — Go's build cache, temporary files,
# the binary, generated inputs, traces — stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/mwsbench" .
exec "$build/mwsbench" "$@"
