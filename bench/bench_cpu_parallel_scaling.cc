/**
 * @file
 * Parallel scaling of the CPU substrate over the runtime thread pool:
 * speedup at 1/2/4/8 threads for the paper's Table 2b GEMM shapes
 * (linear projection GEMM plus the B*h batched attention GEMMs) and
 * for the fused-vs-unfused Adam update loops (the Fig. 12a fusion
 * study's optimizer kernels). Thread counts of one kernel run
 * round-robin on the bench harness; speedups are per-rep ratios
 * against the 1-thread run of the same round.
 *
 * Usage: bench_cpu_parallel_scaling [--quick] [--json <path>]
 *   --quick shrinks shapes and the thread sweep for CI smoke runs.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "harness.h"
#include "ops/gemm.h"
#include "runtime/config.h"
#include "util/rng.h"

using namespace bertprof;

namespace {

struct Case {
    std::string name; ///< metric prefix
    std::string shape;
    std::function<void()> run;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(argc, argv);
    const bool quick = args.quick;

    // Phase-1 BERT-Large geometry (Table 2b): n = 128, h = 16,
    // d_head = 64, d_model = 1024. The batch is sized so the full
    // sweep stays tractable on the blocked reference kernels.
    const std::int64_t seq = quick ? 32 : 128;
    const std::int64_t heads = 16;
    const std::int64_t batch = quick ? 2 : 8; // mini-batch B
    const std::int64_t groups = batch * heads;
    const std::int64_t d_head = 64;
    const std::int64_t d_model = quick ? 256 : 1024;
    const std::int64_t tokens = batch * seq;
    const std::int64_t adam_numel = quick ? 1 << 16 : 1 << 21;
    const int reps = quick ? 2 : 5;

    Rng rng(1234);
    // Attention score: [B*h] n x n x d_head.
    Tensor q(Shape({groups, seq, d_head})), kT(Shape({groups, seq, d_head}));
    Tensor scores(Shape({groups, seq, seq}));
    q.fillNormal(rng);
    kT.fillNormal(rng);
    // Attention output: [B*h] n x d_head x n.
    Tensor probs(Shape({groups, seq, seq})), v(Shape({groups, seq, d_head}));
    Tensor ctx(Shape({groups, seq, d_head}));
    probs.fillUniform(rng);
    v.fillNormal(rng);
    // Linear projection: (B*n) x d_model x d_model.
    Tensor x(Shape({tokens, d_model})), w(Shape({d_model, d_model}));
    Tensor y(Shape({tokens, d_model}));
    x.fillNormal(rng);
    w.fillNormal(rng);

    // Optimizer updates: one big flat parameter per variant, built
    // once outside the timed region, so a rep times one step only.
    Parameter p_fused("bench.fused", Shape({adam_numel}));
    Parameter p_unfused("bench.unfused", Shape({adam_numel}));
    for (Parameter *p : {&p_fused, &p_unfused}) {
        Rng prng(77);
        p->value.fillNormal(prng);
        p->grad.fillNormal(prng);
    }
    Adam adam{OptimizerConfig{}};
    UnfusedAdam unfused_adam{OptimizerConfig{}};

    const auto dims = [](std::int64_t m, std::int64_t n, std::int64_t k) {
        return std::to_string(m) + "x" + std::to_string(n) + "x" +
               std::to_string(k);
    };
    const std::string bh =
        std::string("[").append(std::to_string(groups)).append("] ");
    const std::vector<Case> cases = {
        {"attn_score_bgemm", bh + dims(seq, seq, d_head),
         [&] { batchedGemm(q, kT, scores, false, true); }},
        {"attn_out_bgemm", bh + dims(seq, d_head, seq),
         [&] { batchedGemm(probs, v, ctx); }},
        {"linear_gemm", dims(tokens, d_model, d_model),
         [&] { gemm(x, w, y); }},
        {"adam_fused", std::to_string(adam_numel) + " elems",
         [&] { adam.step({&p_fused}); }},
        {"adam_unfused", std::to_string(adam_numel) + " elems",
         [&] { unfused_adam.step({&p_unfused}); }},
    };

    const std::vector<int> thread_counts =
        quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

    bench::Report report("bench_cpu_parallel_scaling", args);
    std::string sweep;
    for (const int t : thread_counts) {
        if (!sweep.empty())
            sweep += ",";
        sweep += std::to_string(t);
    }
    report.config("thread_counts", sweep);
    report.config("reps", reps);
    for (const Case &c : cases) {
        report.config(c.name, c.shape);
        std::vector<bench::Config> configs;
        for (const int t : thread_counts)
            configs.push_back({[t] { setNumThreads(t); }, c.run});
        const std::vector<bench::Stats> stats =
            bench::runRoundRobin(configs, reps);
        for (std::size_t i = 0; i < thread_counts.size(); ++i) {
            const std::string t = std::to_string(thread_counts[i]);
            report.millis(c.name + ".t" + t + "_ms", stats[i]);
            if (i > 0)
                report.stats(c.name + ".speedup_t" + t, "x",
                             bench::pairedRatio(stats[0], stats[i]));
        }
    }
    setNumThreads(0);

    std::printf(
        "Speedup is bounded by the physical cores of this host; on a\n"
        "1-core container all thread counts time the same serial work\n"
        "plus pool overhead. Outputs are bitwise identical at every\n"
        "thread count (see tests/test_parallel_determinism.cc).\n");
    return report.emit();
}
