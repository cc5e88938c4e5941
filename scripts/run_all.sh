#!/usr/bin/env bash
# Build, test, and regenerate every paper figure/table into results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Crash-safety coverage beyond what in-process tests can show: the
# `robust` label re-runs the checkpoint/fault-injection/resume suites
# explicitly, and check_resume.sh kills a real training process inside
# the optimizer step and verifies the resumed run's final checkpoint
# is byte-identical to an uninterrupted one.
ctest --test-dir build -L robust --output-on-failure
scripts/check_resume.sh build

# Serving-runtime smoke: eval-mode determinism, padding invariance,
# batcher policy, admission control / shedding / degradation ladder,
# and the end-to-end server (the `serve` label also covers the
# bench_serving --quick naive-vs-bucketed comparison).
ctest --test-dir build -L serve --output-on-failure

# Overload chaos smoke: serve_chaos out-of-process at 4x capacity
# with serve.submit/serve.batch/serve.compute faults armed — clean
# shutdown and zero unresolved futures under every plan.
scripts/check_chaos.sh build

# Fusion smoke: fused-kernel parity suites plus the measured
# fused-vs-unfused quick bench (BERTPROF_FUSION defaults off, so
# everything above ran the unfused oracle path).
ctest --test-dir build -L fusion --output-on-failure
build/bench/bench_fusion --quick | tail -2

# Telemetry smoke: record a real (quick) train+eval run into a trace
# container, then replay it with bptrace — the breakdown aggregates
# and stats must come back out of the file the run just wrote. The
# `telemetry` label covers the container/recorder/metrics unit suites.
ctest --test-dir build -L telemetry --output-on-failure
mkdir -p results
build/bench/bench_trace_overhead --quick \
    --record results/run_all_smoke.bptr >/dev/null
build/tools/bptrace/bptrace results/run_all_smoke.bptr \
    --breakdown all --stats | tee results/bptrace_replay.txt
rm -f results/run_all_smoke.bptr

# Cheap static-analysis stages (bplint + -Werror build + clang-tidy);
# run the full sanitizer matrix separately via
# scripts/run_static_analysis.sh when touching kernels or the runtime.
scripts/run_static_analysis.sh --quick

mkdir -p results
for bench in build/bench/bench_*; do
    name="$(basename "$bench")"
    echo "== ${name} =="
    "$bench" | tee "results/${name}.txt"
done
echo "All experiment outputs are in results/."
