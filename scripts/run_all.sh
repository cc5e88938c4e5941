#!/usr/bin/env bash
# Build, test, and regenerate every paper figure/table into results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Tier-1 again at pool widths 1, 2, 4 and 8: no test may depend on
# the host's core count.
scripts/check_threads.sh build

# GEMM stage: every packed-GEMM ISA variant the host runs must match
# the sse2 variant bit for bit (and the reference engine to rounding).
# The label's bench smoke records the dispatched variant, printed here
# so the log shows which kernel ran.
ctest --test-dir build -L gemm --output-on-failure
grep -o '"gemm_isa": "[a-z0-9]*"' build/bench/bench_gemm_microkernel.json

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

# Fusion smoke: every fused kernel against its unfused op chain, and
# the fused eval schedule against the unfused training chain.
ctest --test-dir build -L fusion --output-on-failure

# Telemetry smoke: record a real (quick) train+eval run into a trace
# container, then replay it with bptrace — the breakdown aggregates
# and stats must come back out of the file the run just wrote. The
# `telemetry` label covers the container, recorder and trace-hook suites.
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
