#!/usr/bin/env bash
# CI gate: full build + tests in the normal configuration, a fixed-seed
# differential fuzz matrix, fault-injection and overload smokes (the
# fuzz oracle under injected faults, shed-vs-block admission behavior),
# backend smokes (wallclock model_ms flow, threaded-vs-exact digest
# differential), the perf gate against the checked-in BENCH_*.json
# baselines, the host-complexity gate (ci/host_gate.sh), the docs-vs-code
# gate (ci/doc_check.sh), then
# sanitizer builds — AddressSanitizer with UndefinedBehaviorSanitizer
# (non-recovering: any UB report aborts) runs
# the unit- and serve-label tests plus the fuzz matrix; ThreadSanitizer
# runs the parallel-runtime determinism suite (which includes the
# serving pipeline's WorkerSweepServe tests) with a multi-worker pool,
# a short bench_serving smoke, and the fuzz matrix again (races in the
# batch pipeline and the serve coalescer show up there).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
# Fixed seed matrix for sanitizer fuzz runs: deterministic, so a failure
# here is replayable with the printed `ptrie_fuzz --replay` command.
FUZZ_SEEDS="${FUZZ_SEEDS:-5}"

echo "== plain build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== differential fuzz: seed matrix over all structures =="
./build/tools/ptrie_fuzz --seed 1 --seeds 20 --structure all --profile all \
  --shrink-out build/fuzz_min.sched
# Same matrix with the op mix biased toward the ordered operations
# (pred/succ/range/topk), so the ordered covers and their envelopes get
# a deep differential sweep, not just the ~30% share of the default mix.
./build/tools/ptrie_fuzz --seed 1 --seeds 20 --structure all --profile all \
  --ordered --shrink-out build/fuzz_ordered_min.sched

echo "== observability smoke: trace + bench JSON round-trip =="
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
PTRIE_TRACE="$OBS_TMP/trace.json" ./build/bench/bench_table1_lcp \
  --json "$OBS_TMP/bench.json" >/dev/null
# ptrie_report parses both files back; a malformed trace or bench JSON
# fails here, and the greps assert phase attribution and counter export
# actually happened.
./build/tools/ptrie_report "$OBS_TMP/trace.json" --rounds 0 >"$OBS_TMP/trace_report.txt"
grep -q 'LCP/MetaQuery/HashMatching-L1' "$OBS_TMP/trace_report.txt"
./build/tools/ptrie_report "$OBS_TMP/bench.json" >"$OBS_TMP/bench_report.txt"
grep -q 'counters' "$OBS_TMP/bench_report.txt"

echo "== serving smoke: latency histograms + curves render =="
./build/bench/bench_serving --quick --json "$OBS_TMP/serving.json" >/dev/null
./build/tools/ptrie_report "$OBS_TMP/serving.json" >"$OBS_TMP/serving_report.txt"
grep -q 'latency vs offered load' "$OBS_TMP/serving_report.txt"
grep -q 'lat/pipelined@max' "$OBS_TMP/serving_report.txt"

echo "== lifecycle smoke: spans + metrics sink + skew alerts =="
# Adversarially skewed run (Zipf theta=1.5) with full lifecycle
# telemetry: the Chrome trace must carry the serving span track, the
# JSON-lines sink must parse and render through `ptrie_report --top`,
# and the skew detector must fire at least one alert.
PTRIE_TRACE="$OBS_TMP/serve_trace.json" PTRIE_METRICS="$OBS_TMP/serve_metrics.jsonl" \
  ./build/bench/bench_serving --quick --rates 0 --theta 1.5 >/dev/null
./build/tools/ptrie_report "$OBS_TMP/serve_trace.json" >"$OBS_TMP/serve_trace_report.txt"
grep -q 'request lifecycle spans' "$OBS_TMP/serve_trace_report.txt"
grep -q 'request' "$OBS_TMP/serve_trace_report.txt"
./build/tools/ptrie_report --top "$OBS_TMP/serve_metrics.jsonl" >"$OBS_TMP/serve_top.txt"
grep -q 'tenant' "$OBS_TMP/serve_top.txt"
grep -q '"type":"alert"' "$OBS_TMP/serve_metrics.jsonl"
# Uniform load (theta=0) must stay alert-free: the detector has no
# false positives on the load it was tuned against.
PTRIE_METRICS="$OBS_TMP/serve_uniform.jsonl" \
  ./build/bench/bench_serving --quick --rates 0 --theta 0 >/dev/null
if grep -q '"type":"alert"' "$OBS_TMP/serve_uniform.jsonl"; then
  echo "FAIL: skew alert fired under uniform load" >&2
  exit 1
fi

echo "== fault-injection smoke: recoverable noise + hard read-phase faults =="
# Noise plan: every injected fault recovers within the retry budget, so
# the full differential oracle still applies — the run must be green AND
# must actually have retried (retries > 0 proves faults were injected).
./build/tools/ptrie_fuzz --seed 3 --seeds 2 --structure pimtrie --batches 10 \
  --batch-cap 12 --init 40 --fault-rate 0.02 \
  --shrink-out "$OBS_TMP/fuzz_noise_min.sched" | tee "$OBS_TMP/fuzz_noise.txt"
grep -Eq 'retries=[1-9]' "$OBS_TMP/fuzz_noise.txt"
# Hard plan: every Serve-phase reply corrupts forever, so the affected
# requests must fail honestly (faulted > 0) while everything that reports
# OK still matches the reference — zero silent wrong answers.
./build/tools/ptrie_fuzz --seed 5 --structure serve --batches 10 --batch-cap 12 \
  --init 40 --faults 'corrupt@phase=Serve/,count=always' \
  --shrink-out "$OBS_TMP/fuzz_hard_min.sched" | tee "$OBS_TMP/fuzz_hard.txt"
grep -Eq 'faulted=[1-9]' "$OBS_TMP/fuzz_hard.txt"
# Env hook: PTRIE_FAULTS reaches every System without flag plumbing.
# Stalls deliver intact data (they only charge model words), so the
# serving smoke must still pass end to end.
PTRIE_FAULTS='stall@phase=Serve/,words=100' \
  ./build/bench/bench_serving --quick --ops 200 --rates 0 >/dev/null

echo "== overload smoke: shed policy rejects, default policy stays lossless =="
# Tiny backlog + kShed at saturating load: admission must reject work
# and the bench must stay live end to end. The speedup acceptance is
# meaningless when most requests shed, so ignore the exit code and
# assert on the latency-mode shed summary instead (the deterministic
# shed table at the end always sheds by construction, so the raw
# serve/shed counter would never be zero).
./build/bench/bench_serving --quick --ops 300 --rates 0 --policy shed --backlog 2 \
  >"$OBS_TMP/serving_shed.txt" || true
grep -Eq 'latency-mode sheds=[1-9]' "$OBS_TMP/serving_shed.txt"
# Moderate uniform load under the default kBlock policy: lossless — not
# a single shed.
./build/bench/bench_serving --quick --ops 300 --theta 0 >"$OBS_TMP/serving_block.txt"
grep -Eq 'latency-mode sheds=0$' "$OBS_TMP/serving_block.txt"

echo "== backend smoke: wallclock + threaded execute the bench stack =="
# wallclock: same execution, plus modelled milliseconds must flow into
# the model_ms bench columns (nonzero on at least one pim-trie row).
PTRIE_BACKEND=wallclock ./build/bench/bench_table1_lcp \
  --json "$OBS_TMP/wallclock.json" >"$OBS_TMP/wallclock.txt"
grep -q 'model_ms' "$OBS_TMP/wallclock.txt"
grep -Eq 'pim-trie +[0-9]+ +[0-9.]+ +log P=[0-9]+ +0\.[0-9]*[1-9]' "$OBS_TMP/wallclock.txt" \
  || grep -Eq '"model_ms"' "$OBS_TMP/wallclock.json"
# threaded: per-module worker threads + real barriers must survive the
# serving front-end (its pipeline threads submit rounds concurrently).
PTRIE_BACKEND=threaded ./build/bench/bench_serving --quick --ops 200 --rates 0 >/dev/null
# Backend differential fuzz: threaded vs exact digests over the seed
# matrix, with and without recoverable fault noise.
./build/tools/ptrie_fuzz --seed 1 --seeds 10 --structure pimtrie --profile auto \
  --backend threaded --batches 12 --batch-cap 12 --init 40 \
  --shrink-out "$OBS_TMP/fuzz_backend_min.sched"
./build/tools/ptrie_fuzz --seed 4 --seeds 3 --structure pimtrie --backend threaded \
  --batches 10 --batch-cap 12 --init 40 --fault-rate 0.02 \
  --shrink-out "$OBS_TMP/fuzz_backend_faults_min.sched"
./build/tools/ptrie_fuzz --seed 11 --seeds 4 --structure pimtrie --profile auto \
  --backend wallclock --batches 12 --batch-cap 12 --init 40 \
  --shrink-out "$OBS_TMP/fuzz_backend_wc_min.sched"

echo "== perf gate: model metrics vs checked-in baselines =="
ci/perf_gate.sh build

echo "== host gate: 1-worker build/lcp wall time grows <= 6x for 4x keys =="
ci/host_gate.sh build

echo "== doc check: env-var table + named paths =="
ci/doc_check.sh build

echo "== address+undefined-sanitized build + unit/serve tests + fuzz matrix =="
# -fno-sanitize-recover=undefined (set by CMakeLists.txt) turns every UB
# report, e.g. a shift by the full word width, into a failing exit.
cmake -B build-asan -S . -DPTRIE_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS" --target pimtrie_tests ptrie_fuzz ptrie_report bench_serving
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L 'unit|serve'
# Serving smoke under ASan: coalescer + pipeline + promise plumbing.
./build-asan/bench/bench_serving --quick --ops 200 >/dev/null
./build-asan/tools/ptrie_fuzz --seed 1 --seeds "$FUZZ_SEEDS" \
  --structure all --profile auto --batches 12 --batch-cap 12 --init 40 \
  --shrink-out build-asan/fuzz_min.sched
# Fault-injection under ASan: the corrupt/drop/retry paths copy and
# re-deliver reply buffers — exactly where a lifetime bug would hide.
./build-asan/tools/ptrie_fuzz --seed 2 --seeds 2 --structure pimtrie \
  --batches 10 --batch-cap 12 --init 40 --fault-rate 0.02 \
  --shrink-out build-asan/fuzz_faults_min.sched
# Ordered ops under ASan: the scan answers are assembled from per-piece
# reply buffers (cover probes, kSeekBlock descents, host merges) — the
# natural home for an out-of-bounds or use-after-move.
./build-asan/tools/ptrie_fuzz --seed 1 --seeds "$FUZZ_SEEDS" \
  --structure all --profile auto --ordered --batches 12 --batch-cap 12 \
  --init 40 --shrink-out build-asan/fuzz_ordered_min.sched
# Threaded backend under ASan: worker threads move buffers in and out of
# the shared round state — lifetime bugs in the rendezvous live here.
./build-asan/tools/ptrie_fuzz --seed 1 --seeds "$FUZZ_SEEDS" \
  --structure pimtrie --profile auto --backend threaded --batches 12 \
  --batch-cap 12 --init 40 --shrink-out build-asan/fuzz_backend_min.sched

echo "== thread-sanitized build + parallel determinism suite + fuzz matrix =="
cmake -B build-tsan -S . -DPTRIE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target pimtrie_tests ptrie_fuzz ptrie_report bench_serving
# WorkerSweep* covers the batch-pipeline suite, the trace byte-equality
# suite (WorkerSweepTrace) in tests/test_obs.cpp, and the serving
# pipeline determinism suite (WorkerSweepServe) in tests/test_serve.cpp.
PTRIE_WORKERS=8 ./build-tsan/tests/pimtrie_tests \
  --gtest_filter='WorkerSweep*'
# Remaining serve tier (coalescer triggers, concurrent clients, serve
# fuzz adapter) and a short bench_serving smoke under TSan: the open-loop
# clients, coalescer, and pipeline threads all run concurrently here.
PTRIE_WORKERS=8 ./build-tsan/tests/pimtrie_tests \
  --gtest_filter='Serve*'
PTRIE_WORKERS=8 ./build-tsan/bench/bench_serving --quick --ops 200 >/dev/null
PTRIE_WORKERS=8 ./build-tsan/tools/ptrie_fuzz --seed 1 --seeds "$FUZZ_SEEDS" \
  --structure all --profile auto --batches 12 --batch-cap 12 --init 40 \
  --shrink-out build-tsan/fuzz_min.sched
# Hard Serve-phase faults under TSan: per-run failure resolution races
# against concurrent submitters and the pipeline threads.
PTRIE_WORKERS=8 ./build-tsan/tools/ptrie_fuzz --seed 5 --structure serve \
  --batches 8 --batch-cap 10 --init 30 \
  --faults 'corrupt@phase=Serve/,count=always' \
  --shrink-out build-tsan/fuzz_faults_min.sched
# Ordered ops under TSan: range/topk requests ride the same coalescer
# batches as writes, so the multi-worker pool races scan assembly
# against insert/erase application here.
PTRIE_WORKERS=8 ./build-tsan/tools/ptrie_fuzz --seed 1 --seeds "$FUZZ_SEEDS" \
  --structure all --profile auto --ordered --batches 12 --batch-cap 12 \
  --init 40 --shrink-out build-tsan/fuzz_ordered_min.sched
# Threaded backend under TSan: every module a real thread, every round a
# real barrier — the whole point of the backend is to let TSan see the
# machine's concurrency, so the backend suite and the differential fuzz
# both run here. Data races in the rendezvous or in kernels that touch a
# neighboring module's arena surface as TSan reports, not as flaky bugs.
PTRIE_WORKERS=8 ./build-tsan/tests/pimtrie_tests --gtest_filter='Backend*'
PTRIE_WORKERS=8 ./build-tsan/tools/ptrie_fuzz --seed 1 --seeds "$FUZZ_SEEDS" \
  --structure pimtrie --profile auto --backend threaded --batches 12 \
  --batch-cap 12 --init 40 --shrink-out build-tsan/fuzz_backend_min.sched
PTRIE_WORKERS=8 ./build-tsan/tools/ptrie_fuzz --seed 4 --seeds 2 \
  --structure pimtrie --backend threaded --batches 10 --batch-cap 12 \
  --init 40 --fault-rate 0.02 \
  --shrink-out build-tsan/fuzz_backend_faults_min.sched

echo "all checks passed"
