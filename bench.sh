#!/usr/bin/env bash
# bench.sh — record the Figure 3 benchmark panels, the export
# throughput benchmarks (CSV serial vs concurrent vs JSONL vs columnar
# on the Figure3_LFR100k dataset), the datasynthd service path (cold
# submit vs warm cache hit — with and without eviction pressure — vs
# singleflight storm), and the bipartite matcher
# with -benchmem, and write a machine-readable snapshot
# (BENCH_pr<N>.json) so the perf trajectory is tracked PR over PR.
#
# Usage: ./bench.sh [pr-number] [bench-regex] [service-bench-regex] [match-bench-regex]
set -euo pipefail

PR="${1:-9}"
PATTERN="${2:-Figure3|Export}"
SERVICE_PATTERN="${3:-Service}"
MATCH_PATTERN="${4:-MatchBipartite}"
OUT="BENCH_pr${PR}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -count 1 . | tee "$RAW"
go test -run '^$' -bench "$SERVICE_PATTERN" -benchmem -count 1 ./internal/service | tee -a "$RAW"
go test -run '^$' -bench "$MATCH_PATTERN" -benchmem -count 1 ./internal/match | tee -a "$RAW"

# Lint lane: the datasynthlint sweep is a blocking CI step, so its wall
# time is tracked in the snapshot alongside the benchmarks. The run
# must also be clean — a finding fails bench.sh like it fails CI.
LINT_START="$(date +%s%N)"
go run ./lint/cmd/datasynthlint ./...
LINT_MS=$(( ($(date +%s%N) - LINT_START) / 1000000 ))
echo "datasynthlint ./...: clean in ${LINT_MS} ms"

# Parse `go test -bench` output lines into JSON records. A line looks
# like:
#   BenchmarkFigure3_LFR10k_K16  3  338359616 ns/op  0.03 KS  0.06 L1 \
#     955265 edges  157510493 B/op  256504 allocs/op
awk -v pr="$PR" -v lint_ms="$LINT_MS" '
BEGIN { printf "{\n  \"pr\": %s,\n  \"lint_ms\": %s,\n  \"benchmarks\": [\n", pr, lint_ms; first = 1 }
/^Benchmark/ {
    name = $1; iters = $2
    line = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        metric = $(i + 1); value = $i
        gsub(/[^A-Za-z0-9_\/]/, "_", metric)
        line = line sprintf("\"%s\": %s, ", metric, value)
    }
    sub(/, $/, "", line)
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"iterations\": %s, %s}", name, iters, line
}
END { printf "\n  ]\n}\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT"
