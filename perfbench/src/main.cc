/**
 * @file
 * The repo benchmark program (`perfbench`), run by perfbench/run.py.
 *
 * Usage: perfbench --workload <train-tiny|serve-mixed>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  [--trace-out <spans.json>]
 *
 * Prints every metric it measured with its unit and sample count,
 * then one JSON result line: the end-to-end metrics with --trace 0,
 * the per-layer metrics of the separate traced run with --trace 1.
 * A failed correctness check shows as "correct": false. Exits
 * non-zero, without a result line, on bad arguments or when a
 * BERTPROF_* override is set.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "runtime/config.h"

extern char **environ;

namespace perfbench {
namespace {

/** End-to-end metrics; every workload reports each (tracing off). */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ms_per_item", "ms"},
};

/** Per-layer metrics of the traced run, named after src/ modules. */
const std::vector<MetricSpec> kPerLayer = {
    {"runtime.speedup_vs_1t", "x"},
    {"runtime.kernel_us_p50", "us"},
    {"runtime.kernels_per_step", "count"},
    {"ops.fc_gemm_ms", "ms"},
    {"ops.attn_linear_ms", "ms"},
    {"ops.attn_bgemm_ms", "ms"},
    {"ops.scale_mask_sm_ms", "ms"},
    {"ops.dr_rc_ln_ms", "ms"},
    {"ops.gelu_ms", "ms"},
    {"ops.embedding_ms", "ms"},
    {"ops.output_ms", "ms"},
    {"ops.gemm_gflops", "GFLOP/s"},
    {"ops.attn_bgemm_gflops", "GFLOP/s"},
    {"ops.elementwise_gbps", "GB/s"},
    {"nn.fwd_bwd_ms", "ms"},
    {"nn.self_ms", "ms"},
    {"nn.eval_ms_per_batch", "ms"},
    {"nn.eval_us_per_padded_token", "us"},
    {"optim.unscale_ms", "ms"},
    {"optim.step_ms", "ms"},
    {"optim.lamb_stage1_ms", "ms"},
    {"data.batch_ms", "ms"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_tail", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.pad_efficiency", "share"},
    {"serve.executor_busy_share", "share"},
    {"serve.refused_share.expired", "share"},
    {"serve.refused_share.queue_full", "share"},
    {"serve.stats_drift", "share"},
    {"gen.late_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.overhead_iqr_pct", "%"},
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <train-tiny|serve-mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n");
    std::exit(2);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage();
        const std::string flag = argv[i];
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
            have_seed = *value != '\0' && *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0))
                usage();
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage();
            a.trace = value[0] == '1';
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            usage();
        }
    }
    if (!have_seed ||
        (a.workload != "train-tiny" && a.workload != "serve-mixed"))
        usage();
    return a;
}

/** True (after naming them) when any BERTPROF_* override is set. */
bool
overridesSet()
{
    bool any = false;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "BERTPROF_", 9) == 0) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         *e);
            any = true;
        }
    }
    return any;
}

void
printKnobs()
{
    std::printf("knobs: threads %d (hardware_concurrency %u), gemm %s, "
                "fusion %s\n",
                bertprof::configuredNumThreads(),
                std::thread::hardware_concurrency(),
                bertprof::gemmImplName(bertprof::configuredGemmImpl()),
                bertprof::fusionModeName(bertprof::configuredFusionMode()));
    std::printf("build: %s, compiled ISA:%s%s%s\n",
#ifdef NDEBUG
                "release",
#else
                "debug",
#endif
#ifdef __AVX512F__
                " avx512f",
#else
                "",
#endif
#ifdef __AVX2__
                " avx2",
#else
                "",
#endif
#ifdef __SSE2__
                " sse2"
#else
                ""
#endif
    );
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const RunArgs args = parseArgs(argc, argv);
    if (overridesSet())
        return 2;
    std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    printKnobs();

    Report report;
    if (args.workload == "serve-mixed")
        runServing(args, report);
    else
        runTraining(args, report);
    // A failed check is reported through "correct": false, not the
    // exit code; a metric the run failed to produce is a bug.
    return report.print(args.trace ? kPerLayer : kEndToEnd, args.trace) ? 0
                                                                        : 3;
}
