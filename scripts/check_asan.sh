#!/usr/bin/env bash
# Build the tree under AddressSanitizer and run the tier-1 test suite,
# so heap/stack out-of-bounds and use-after-free in the kernels (and
# the thread pool's lifetime handling) surface deterministically.
#
# Usage: scripts/check_asan.sh [ctest-label-regex]
#   With no argument the full suite runs; pass e.g. "gemm" to restrict
#   to the GEMM tests, "robust" for the checkpoint/fault-injection
#   suites, or "serve" for the serving runtime. The full run and the
#   "robust" run also execute the kill-and-resume smoke
#   (scripts/check_resume.sh) against this sanitized build.
#
# Env passthrough (defaults in parentheses):
#   BERTPROF_NUM_THREADS (8)  pool width while testing
#   BERTPROF_GEMM_IMPL (packed)  GEMM engine: packed | reference
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
LABEL="${1:-}"

cmake -B "${BUILD_DIR}" -S . -DBERTPROF_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)"

export BERTPROF_NUM_THREADS="${BERTPROF_NUM_THREADS:-8}"
export BERTPROF_GEMM_IMPL="${BERTPROF_GEMM_IMPL:-packed}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 abort_on_error=0 exitcode=66}"

if [[ -n "${LABEL}" ]]; then
    ctest --test-dir "${BUILD_DIR}" -L "${LABEL}" --output-on-failure
else
    ctest --test-dir "${BUILD_DIR}" --output-on-failure
fi
if [[ -z "${LABEL}" || "${LABEL}" == "robust" ]]; then
    scripts/check_resume.sh "${BUILD_DIR}"
fi
echo "AddressSanitizer run clean (GEMM_IMPL=${BERTPROF_GEMM_IMPL})."
