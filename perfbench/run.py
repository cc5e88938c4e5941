#!/usr/bin/env python3
"""Repo benchmark: build the library and perfbench, run one workload.

Usage (from the repo root):
    python3 perfbench/run.py --workload <train-tiny|serve-mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the library modules under src/ plus the program) in
.bench_build/perfbench with the default portable Release flags, prints
the host fingerprint, runs the program, checks that its result line
reports exactly the metrics BENCHMARK.json declares for the mode, and
prints that line last. See perfbench/NOTES.md for what is measured.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("train-tiny", "serve-mixed")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build failed: " + " ".join(cmd), 1)


def fingerprint():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    isa = [name for name in ("avx2", "avx512f", "amx_tile") if name in flags]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "isa": isa, "build": "portable Release (no -march=native)"}


def cpu_times():
    """Aggregate jiffies from /proc/stat (empty when unreadable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def declared(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    print("host: " + json.dumps(fingerprint()), flush=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(REPO, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    # Time the hypervisor gave our vCPUs to others during the run: a
    # high share marks a run taken while the host was contended.
    delta = [b - a for a, b in zip(before, cpu_times())]
    if len(delta) > 7 and sum(delta) > 0:
        print(f"host: steal {100.0 * delta[7] / sum(delta):.1f}% of "
              "CPU time during the run")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:  # no result line was printed
        print("\n".join(lines))
        die(f"perfbench exited with {proc.returncode}", 1)

    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared(args.trace):
        print("\n".join(lines[:-1]))
        die("result metrics differ from BENCHMARK.json", 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
