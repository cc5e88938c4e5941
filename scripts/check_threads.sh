#!/usr/bin/env bash
# Run the tier-1 suite at several thread-pool widths, so a test that
# only passes at the host's core count (or only serially) fails here.
# Every kernel is bitwise thread-count invariant, and no tier-1
# assertion may depend on how many lanes the pool has.
#
# Usage: scripts/check_threads.sh [build-dir]
#   Default build dir: build. The tests must already be built there
#   (scripts/run_all.sh does this). Sweeps BERTPROF_NUM_THREADS over
#   1, 2, 4 and 8, each with ctest -j4.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

if [[ ! -f "${BUILD_DIR}/CTestTestfile.cmake" ]]; then
    echo "check_threads: no tests configured in ${BUILD_DIR}" >&2
    exit 1
fi

failed=()
for n in 1 2 4 8; do
    echo "== tier-1 at BERTPROF_NUM_THREADS=${n} =="
    if ! BERTPROF_NUM_THREADS="${n}" ctest --test-dir "${BUILD_DIR}" \
        -j 4 --output-on-failure; then
        failed+=("${n}")
    fi
done
if (( ${#failed[@]} > 0 )); then
    echo "check_threads: tier-1 failed at BERTPROF_NUM_THREADS=${failed[*]}" >&2
    exit 1
fi
echo "Tier-1 green at BERTPROF_NUM_THREADS=1, 2, 4, 8."
