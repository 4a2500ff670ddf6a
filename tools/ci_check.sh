#!/usr/bin/env bash
# The full local CI pipeline, in escalating order of cost:
#
#   0. lint     — tools/metrics_lint.py: metric-name literals must follow
#                 the registry naming convention (free, fails fast);
#                 tools/layering_lint.py: every src/ include names a linked
#                 library and the link graph is acyclic; plus the unit
#                 checks of tools/layering_lint.py's and
#                 tools/bench_compare.py's exit status.
#   1. tier1    — the deterministic correctness gate (ctest -L tier1,
#                 including the slow property suites): must stay green on
#                 every change.
#   2. perfbench — the repository benchmark's own tests (python3 -m unittest
#                 discover -s perfbench): every workload at smoke scale,
#                 untraced and traced, plus the ledger and compare logic.
#                 Builds painter_perfbench into .bench_build/ on first run.
#   3. property — the randomized suites on their own (ctest -L property),
#                 surfacing seed-dependent regressions with --output-on-failure.
#   4. actionspace — the advertisement action-space tier (ctest -L
#                 actionspace: prepend/community best-path properties,
#                 v2 config wire format, CELF golden schedules under the
#                 widened variant table, engine-vs-oracle comparisons and
#                 the cached-seed pruning audit).
#   5. workload — the workload-engine tier (ctest -L workload) plus a smoke
#                 run of bench/workload_throughput (tiny trace, full pipeline:
#                 generate -> pin-lookup -> policy replay -> sharded sweep).
#   6. shard    — the sharded DES tier (ctest -L shard: epoch-barrier
#                 protocol ordering, sharded-replay bit-identity across
#                 shard counts, and the replay's rejection of the serial
#                 engine's hooks).
#   7. timeline — the unified-timeline tier (ctest -L timeline: integer-µs
#                 clock, tick-grid, TTL-cache, and byte-identity tests) plus
#                 a smoke run of bench/unified_timeline, whose own gates
#                 require >= 2 advertisement rounds interleaved with the
#                 trace and a zero tick skew.
#   8. control  — the always-on control-plane tier (ctest -L control:
#                 DeltaBus ordering/overflow, config diffing, churn
#                 environment double-entry, re-armable LearningTimeline,
#                 service reaction/hysteresis/determinism, and the
#                 incremental-vs-full audit property) plus a smoke run of
#                 bench/control_loop, whose own gates require every scripted
#                 fault answered within the reaction SLO, zero audit
#                 mismatches, and the equal-reactivity recompute savings.
#   9, 10. ASan+UBSan, then TSan — dedicated sanitizer build trees running the
#                 `sanitize` + `property` + `shard` + `actionspace` +
#                 `control` label selection
#                 (tools/asan_check.sh and tools/tsan_check.sh), which
#                 includes the faultsim chaos batch at multiple thread counts
#                 and the sharded-replay suites (single-threaded; under the
#                 sanitizers for memory errors and UB).
#
# Any stage failing aborts the pipeline with that stage's exit status.
#
# Usage: tools/ci_check.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

echo "=== ci 0/10: metrics naming + library layering lints ==="
python3 tools/metrics_lint.py
python3 tools/layering_lint.py
python3 -B -m unittest discover -s tools -p 'test_*.py'

echo "=== ci 1/10: tier1 correctness gate ==="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure

echo "=== ci 2/10: benchmark self-tests (perfbench, smoke scale) ==="
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "=== ci 3/10: property suites ==="
ctest --test-dir "$BUILD_DIR" -L property --output-on-failure

echo "=== ci 4/10: action-space tier ==="
ctest --test-dir "$BUILD_DIR" -L actionspace --output-on-failure

echo "=== ci 5/10: workload tier + throughput smoke ==="
ctest --test-dir "$BUILD_DIR" -L workload --output-on-failure
cmake --build "$BUILD_DIR" -j --target workload_throughput >/dev/null
"$BUILD_DIR"/bench/workload_throughput --smoke >/dev/null

echo "=== ci 6/10: shard tier ==="
ctest --test-dir "$BUILD_DIR" -L shard --output-on-failure

echo "=== ci 7/10: timeline tier + unified-timeline smoke ==="
ctest --test-dir "$BUILD_DIR" -L timeline --output-on-failure
cmake --build "$BUILD_DIR" -j --target unified_timeline >/dev/null
"$BUILD_DIR"/bench/unified_timeline --smoke >/dev/null

echo "=== ci 8/10: control tier + control-loop smoke ==="
ctest --test-dir "$BUILD_DIR" -L control --output-on-failure
cmake --build "$BUILD_DIR" -j --target control_loop >/dev/null
"$BUILD_DIR"/bench/control_loop --smoke >/dev/null

echo "=== ci 9/10: ASan+UBSan (sanitize|property|shard|actionspace|control labels) ==="
tools/asan_check.sh

echo "=== ci 10/10: TSan (sanitize|property|shard|actionspace|control labels) ==="
tools/tsan_check.sh

echo "ci_check: all stages green."
