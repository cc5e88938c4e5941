/**
 * @file
 * Packed microkernel vs. reference GEMM engine over the paper's
 * Table 2b BERT-Large GEMM shapes — the kernels that dominate
 * training time (Table 1, Figs. 3-4). Every shape family appears
 * with the trans_a/trans_b combination the model actually issues
 * (attention's K^T score GEMM, the backward weight gradients'
 * A^T B), plus one (T,T) case so all four combinations are covered.
 * Reports GFLOP/s for every packed ISA variant this host runs
 * (`<shape>.<isa>.packed_gflops`, sse2 always), the dispatched
 * variant's speedup over the sse2 variant (`<shape>.speedup`: the
 * same loop nest and packing, so the ratio isolates the register
 * tile), and `variants_bitwise_equal` (1 when every variant's output
 * is bit-for-bit the sse2 variant's; the bench exits 1 otherwise).
 * The reference engine's GFLOP/s (`<shape>.ref_gflops`) is kept as
 * an informational column: its own rate drifts between snapshots
 * outside its quartiles, so no ratio is taken against it.
 * Single-threaded, so the comparison isolates the per-core hot path.
 *
 * Usage: bench_gemm_microkernel [--quick] [--json <path>]
 *   --quick shrinks the mini-batch and repetitions for CI smoke runs.
 *   --json writes the harness's JSON (scripts/run_bench.sh snapshots
 *   it into results/).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "harness.h"
#include "ops/gemm.h"
#include "ops/gemm_microkernel.h"
#include "runtime/config.h"
#include "util/rng.h"

using namespace bertprof;

namespace {

struct ShapeCase {
    std::string name; ///< metric prefix
    std::int64_t m, n, k;
    std::int64_t batch; // 1 = plain gemm, >1 = batchedGemm
    bool trans_a, trans_b;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(argc, argv);
    const bool quick = args.quick;

    // BERT-Large phase-1 geometry (Table 2b): n = 128, h = 16,
    // d_head = 64, d_model = 1024, d_ff = 4096. The mini-batch is
    // sized so the reference sweep stays tractable on one core.
    const std::int64_t seq = 128;
    const std::int64_t heads = 16;
    const std::int64_t batch = quick ? 1 : 4;
    const std::int64_t groups = batch * heads;
    const std::int64_t d_head = 64;
    const std::int64_t d_model = quick ? 256 : 1024;
    const std::int64_t d_ff = 4 * d_model;
    const std::int64_t tokens = batch * seq;
    const int reps = quick ? 3 : 5;

    const std::vector<ShapeCase> shapes = {
        // Encoder linear projections (QKV/output): FWD x W^T, the
        // activation gradient (N,N), and the weight gradient (T,N).
        {"linear_fwd", tokens, d_model, d_model, 1, false, true},
        {"linear_bwd_act", tokens, d_model, d_model, 1, false, false},
        {"linear_bwd_wgt", d_model, d_model, tokens, 1, true, false},
        // Attention score QK^T and its two backward forms, batched
        // over B*h heads.
        {"attn_score_fwd", seq, seq, d_head, groups, false, true},
        {"attn_out_fwd", seq, d_head, seq, groups, false, false},
        {"attn_dv", seq, d_head, seq, groups, true, false},
        // Feed-forward pair.
        {"fc1_fwd", tokens, d_ff, d_model, 1, false, true},
        {"fc2_fwd", tokens, d_model, d_ff, 1, false, true},
        // (T,T) completes the transpose coverage at the linear shape.
        {"linear_tt", tokens, d_model, d_model, 1, true, true},
    };

    setNumThreads(1); // isolate the per-core hot path
    bench::Report report("bench_gemm_microkernel", args);
    report.config("reps", reps);
    report.config("batch", static_cast<double>(batch));
    report.config("seq", static_cast<double>(seq));
    report.config("d_model", static_cast<double>(d_model));

    const std::vector<CpuIsa> isas = availableCpuIsas();
    bool all_bitwise = true;
    for (const ShapeCase &s : shapes) {
        Rng rng(90210);
        const Shape a_shape =
            s.batch > 1
                ? (s.trans_a ? Shape({s.batch, s.k, s.m})
                             : Shape({s.batch, s.m, s.k}))
                : (s.trans_a ? Shape({s.k, s.m}) : Shape({s.m, s.k}));
        const Shape b_shape =
            s.batch > 1
                ? (s.trans_b ? Shape({s.batch, s.n, s.k})
                             : Shape({s.batch, s.k, s.n}))
                : (s.trans_b ? Shape({s.n, s.k}) : Shape({s.k, s.n}));
        const Shape c_shape = s.batch > 1 ? Shape({s.batch, s.m, s.n})
                                          : Shape({s.m, s.n});
        Tensor a(a_shape), b(b_shape), c(c_shape);
        a.fillNormal(rng);
        b.fillNormal(rng);

        const auto reference = [&] {
            if (s.batch > 1)
                batchedGemm(a, b, c, s.trans_a, s.trans_b);
            else
                gemm(a, b, c, s.trans_a, s.trans_b);
        };
        // One variant, called directly: the serial equivalent of the
        // dispatched gemm()/batchedGemm() at one thread.
        const auto packed = [&](CpuIsa isa) {
            const std::int64_t a_step = s.m * s.k, b_step = s.k * s.n,
                               c_step = s.m * s.n;
            for (std::int64_t g = 0; g < s.batch; ++g)
                gemmPackedRowsFor(isa, a.data() + g * a_step,
                                  b.data() + g * b_step,
                                  c.data() + g * c_step, s.m, s.n, s.k,
                                  s.trans_a, s.trans_b, 1.0f, 0.0f, 0, s.m);
        };
        const double flops = 2.0 * static_cast<double>(s.m) *
                             static_cast<double>(s.n) *
                             static_cast<double>(s.k) *
                             static_cast<double>(s.batch);
        std::vector<bench::Config> configs = {
            {[] { setGemmImpl(GemmImpl::Reference); }, reference}};
        for (const CpuIsa isa : isas)
            configs.push_back({{}, [&packed, isa] { packed(isa); }});
        const std::vector<bench::Stats> t =
            bench::runRoundRobin(configs, reps);

        // Every variant must reproduce the sse2 bits; the reference
        // engine differs by rounding from its association order.
        reference();
        const Tensor c_ref = c.clone();
        packed(CpuIsa::Sse2);
        const Tensor c_sse2 = c.clone();
        bool bitwise = true;
        for (const CpuIsa isa : isas) {
            packed(isa);
            bitwise = bitwise &&
                      std::memcmp(c.data(), c_sse2.data(),
                                  static_cast<std::size_t>(c.numel()) *
                                      sizeof(float)) == 0;
        }
        all_bitwise = all_bitwise && bitwise;

        std::string dims = std::string(s.trans_a ? "T" : "N") +
                           (s.trans_b ? "T" : "N") + " " +
                           std::to_string(s.m) + "x" + std::to_string(s.n) +
                           "x" + std::to_string(s.k);
        if (s.batch > 1)
            dims += " [" + std::to_string(s.batch) + "]";
        report.config(s.name, dims);
        report.rate(s.name + ".ref_gflops", "GFLOP/s", flops * 1e-9, t[0]);
        for (std::size_t v = 0; v < isas.size(); ++v)
            report.rate(s.name + "." + cpuIsaName(isas[v]) +
                            ".packed_gflops",
                        "GFLOP/s", flops * 1e-9, t[v + 1]);
        // t[1] is sse2; the last variant is the widest, i.e. the
        // dispatched one.
        report.stats(s.name + ".speedup", "x",
                     bench::pairedRatio(t[1], t.back()));
        report.value(s.name + ".max_abs_diff", maxAbsDiff(c, c_ref), "abs");
        report.value(s.name + ".variants_bitwise_equal", bitwise ? 1 : 0,
                     "bool");
    }
    clearGemmImplOverride();
    setNumThreads(0);

    std::printf("max_abs_diff (dispatched variant vs reference) is "
                "rounding from the engines' different\n"
                "association orders, not nondeterminism "
                "(tests/test_gemm_microkernel.cc cross-checks both).\n");
    const int status = report.emit();
    if (!all_bitwise) {
        std::fprintf(stderr, "packed GEMM variants disagree bitwise\n");
        return 1;
    }
    return status;
}
