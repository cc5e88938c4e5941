#!/usr/bin/env bash
# Build Release and capture the perf-trajectory benchmarks, all on
# the one bench harness (bench/harness.h): the GEMM engine comparison
# (packed microkernel vs reference, Table 2b BERT-Large shapes), the
# parallel-scaling sweep, the CPU-substrate kernel microbenchmarks,
# the serving runtime's naive-vs-bucketed and overload sweeps,
# fused-vs-unfused kernels, the telemetry recorder's overhead, and
# linter throughput. Text goes to results/ as the human-readable
# snapshot; each results/BENCH_*.json is the same metric list in the
# harness's one schema (median, quartiles and rep count per metric),
# the machine-readable record successive changes can diff.
# BENCH_trace.json records the recorder-on vs recorder-off overhead
# with its quartiles, or null when the spread swamps it; nothing
# gates on it.
#
# Usage: scripts/run_bench.sh [--native]
#   --native configures with -DBERTPROF_NATIVE=ON (-march=native).
#   The packed GEMM already runs the host's widest ISA in every build
#   (run-time dispatch); -march=native also vectorizes the other
#   kernels for the host. Results captured this way are only
#   comparable to other --native runs.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
NATIVE=OFF
if [[ "${1:-}" == "--native" ]]; then
    NATIVE=ON
    BUILD_DIR="${BUILD_DIR}-native"
fi

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DBERTPROF_NATIVE="${NATIVE}"
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target bench_gemm_microkernel bench_cpu_parallel_scaling \
    bench_cpu_substrate bench_serving bench_trace_overhead bench_fusion \
    bench_bplint

mkdir -p results
"${BUILD_DIR}/bench/bench_gemm_microkernel" \
    --json results/BENCH_gemm.json \
    | tee results/bench_gemm_microkernel.txt
"${BUILD_DIR}/bench/bench_cpu_parallel_scaling" \
    --json results/BENCH_parallel_scaling.json \
    | tee results/bench_cpu_parallel_scaling.txt
"${BUILD_DIR}/bench/bench_cpu_substrate" \
    --json results/BENCH_substrate.json \
    | tee results/bench_cpu_substrate.txt
"${BUILD_DIR}/bench/bench_serving" \
    --json results/BENCH_serving.json \
    | tee results/bench_serving.txt
"${BUILD_DIR}/bench/bench_serving" --overload \
    --json results/BENCH_serving_overload.json \
    | tee results/bench_serving_overload.txt
"${BUILD_DIR}/bench/bench_trace_overhead" \
    --json results/BENCH_trace.json \
    --record results/bench_trace_overhead.bptr \
    | tee results/bench_trace_overhead.txt
"${BUILD_DIR}/bench/bench_fusion" \
    --json results/BENCH_fusion.json \
    | tee results/bench_fusion.txt
"${BUILD_DIR}/bench/bench_bplint" \
    --json results/BENCH_lint.json \
    | tee results/bench_bplint.txt

echo "snapshots: results/bench_gemm_microkernel.txt," \
     "results/BENCH_gemm.json, results/bench_cpu_parallel_scaling.txt," \
     "results/BENCH_parallel_scaling.json," \
     "results/bench_cpu_substrate.txt, results/BENCH_substrate.json," \
     "results/bench_serving.txt, results/BENCH_serving.json," \
     "results/bench_serving_overload.txt," \
     "results/BENCH_serving_overload.json," \
     "results/bench_trace_overhead.txt, results/BENCH_trace.json," \
     "results/bench_fusion.txt, results/BENCH_fusion.json," \
     "results/bench_bplint.txt, results/BENCH_lint.json"
