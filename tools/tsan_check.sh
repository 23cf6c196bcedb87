#!/usr/bin/env bash
# Build with ThreadSanitizer (-DBBA_SANITIZE=thread) and run every test
# labeled "tsan" — the cheap suites that exercise the parallel runtime —
# to catch data races in the work-sharing engine and the parallelized
# BV-matching stages. The label set lives in tests/CMakeLists.txt, so new
# concurrency tests join this leg by labeling, not by editing this script.
#
# Usage: tools/tsan_check.sh [build_dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-tsan}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DBBA_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target tsan_tests -j"$(nproc)"

# Force the pool on even when the host reports a single CPU: TSan finds
# races through happens-before analysis, not timing, so timesliced worker
# threads are enough.
export BBA_THREADS="${BBA_THREADS:-8}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure
echo "tsan_check: no data races detected"
