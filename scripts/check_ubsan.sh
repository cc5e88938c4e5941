#!/usr/bin/env bash
# Build the tree under UndefinedBehaviorSanitizer and run the tier-1
# test suite: signed overflow, misaligned access, bad shifts, and
# float-cast overflow in the kernels become hard failures.
#
# Usage: scripts/check_ubsan.sh [ctest-label-regex]
#   With no argument the full suite runs; pass e.g. "gemm" to restrict
#   to the GEMM tests, "simd" for the per-ISA kernel variants, "robust" for the checkpoint/fault-injection
#   suites, or "serve" for the serving runtime. The full run and the
#   "robust" run also execute the kill-and-resume smoke
#   (scripts/check_resume.sh) against this sanitized build.
#
# Env passthrough (defaults in parentheses):
#   BERTPROF_NUM_THREADS (8)  pool width while testing
#   BERTPROF_GEMM_IMPL (packed)  GEMM engine: packed | reference
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-ubsan
LABEL="${1:-}"

# GCC's -fsanitize=undefined leaves float-cast-overflow out; name it.
cmake -B "${BUILD_DIR}" -S . -DBERTPROF_SANITIZE=undefined,float-cast-overflow \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)"

export BERTPROF_NUM_THREADS="${BERTPROF_NUM_THREADS:-8}"
export BERTPROF_GEMM_IMPL="${BERTPROF_GEMM_IMPL:-packed}"
# halt_on_error makes every UB report fail the owning test instead of
# scrolling past as a warning.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1 exitcode=66}"

if [[ -n "${LABEL}" ]]; then
    ctest --test-dir "${BUILD_DIR}" -L "${LABEL}" --output-on-failure
else
    ctest --test-dir "${BUILD_DIR}" --output-on-failure
fi
if [[ -z "${LABEL}" || "${LABEL}" == "robust" ]]; then
    scripts/check_resume.sh "${BUILD_DIR}"
fi
echo "UndefinedBehaviorSanitizer run clean (GEMM_IMPL=${BERTPROF_GEMM_IMPL})."
