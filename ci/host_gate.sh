#!/usr/bin/env bash
# Host-complexity gate: runs bench_host_scaling at n = 8192 and 4n =
# 32768 keys and fails when the 1-worker build, lcp or insert wall time
# grows by more than 6x. Work-efficient host code (the paper's linear
# blocking, query-trie splitting and batch-proportional maintenance)
# grows about 4x; a Theta(pieces x n) path grows well past 6x. Only the ratio is gated, never absolute ms, so
# the gate holds on any machine.
#
# usage: ci/host_gate.sh [build-dir]   (default: build)
set -euo pipefail

BUILD=${1:-build}
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
MAX_RATIO=6

PTRIE_BENCH_N=8192 "$BUILD/bench/bench_host_scaling" >"$TMP/n.txt"
PTRIE_BENCH_N=32768 "$BUILD/bench/bench_host_scaling" >"$TMP/4n.txt"

# 1-worker wall_ms of one op's table: the row whose first cell is 1
# under the "== <op> ==" header.
one_worker_ms() {
  awk -v hdr="== $2 ==" '$0 == hdr {t = 1; next} /^== / {t = 0}
    t && $1 == "1" {print $2; exit}' "$1"
}

for op in build lcp insert; do
  small=$(one_worker_ms "$TMP/n.txt" "$op")
  big=$(one_worker_ms "$TMP/4n.txt" "$op")
  awk -v op="$op" -v a="$small" -v b="$big" -v max="$MAX_RATIO" 'BEGIN {
    if (!(a > 0) || !(b > 0)) { print "host gate: FAIL no 1-worker " op " row" > "/dev/stderr"; exit 1 }
    printf "host gate: %s n=8192 %.1f ms, n=32768 %.1f ms, ratio %.2fx (max %dx)\n", op, a, b, b / a, max
    if (b / a > max) { print "host gate: FAIL " op " grows super-linearly in n" > "/dev/stderr"; exit 1 }
  }'
done
echo "host gate: OK"
