#!/usr/bin/env bash
# Build the whole tree with AddressSanitizer + UndefinedBehaviorSanitizer
# (or ThreadSanitizer) and run the test suite under it. Any heap error or
# UB diagnostic aborts the offending test (-fno-sanitize-recover=all), and
# a data race fails it, so a clean ctest run means the suite executed
# sanitizer-clean.
#
#   scripts/check_sanitizers.sh [build-dir] [ctest-regex] [ON|thread]
#
# The third argument is the KSW_SANITIZE value: ON (default) for
# ASan+UBSan, thread for TSan (use a separate build dir, e.g. build-tsan).
#
# Benchmarks and examples are skipped: they add minutes of build time and
# exercise the same library code the tests already cover.
set -euo pipefail

build_dir="${1:-build-asan}"
filter="${2:-}"
mode="${3:-ON}"
src_dir="$(cd "$(dirname "$0")/.." && pwd)"

# TSan runs the heaviest integration tests 5-15x slower (200 s on a
# 4-core box), so its per-test timeout is raised from the default 600 s.
timeout_args=()
if [ "$mode" = "thread" ]; then
  timeout_args+=(-DKSW_TEST_TIMEOUT=1800)
fi

cmake -B "$build_dir" -S "$src_dir" \
  "-DKSW_SANITIZE=$mode" "${timeout_args[@]}" \
  -DKSW_BUILD_BENCH=OFF \
  -DKSW_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"

ctest_args=(--test-dir "$build_dir" --output-on-failure -j "$(nproc)")
if [ -n "$filter" ]; then
  ctest_args+=(-R "$filter")
fi

# halt_on_error is the default for ASan; detect_leaks stays on so arena
# bookkeeping mistakes in QueuePool would surface as leak reports.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest "${ctest_args[@]}"

echo "check_sanitizers: OK"
