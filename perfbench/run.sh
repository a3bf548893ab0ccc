#!/usr/bin/env bash
# Builds the programs under test (datasynth, datasynthd) and the
# benchmark harness from source, then runs the harness with the given
# flags. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload social-csv --seed 1 --seconds 30 --trace 0
#
# Everything it builds, caches or writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"

go build -C "$root" -o "$build/bin/" ./cmd/datasynth ./cmd/datasynthd
go build -C "$root/perfbench" -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
