/**
 * @file
 * Microbenchmarks of the executable CPU substrate: the individual
 * kernels (GEMM, softmax, LayerNorm, GeLU, LAMB and Adam steps) and a
 * full tiny-BERT training iteration. These are real measured times
 * (the repo's equivalent of the paper's rocProf runs, scaled down to
 * CPU-tractable sizes); every case is one harness configuration and
 * reports the median per-call time with its quartiles. The GeLU and
 * softmax kernels also run once per ISA variant the host supports,
 * called directly on one thread (`<case>.<isa>.ms`), and
 * `elementwise.variants_bitwise_equal` checks that the variants'
 * outputs agree bit for bit (exit 1 if not).
 *
 * Usage: bench_cpu_substrate [--quick] [--json <path>]
 *   --quick runs fewer reps for CI smoke runs.
 */

#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "harness.h"
#include "ops/activation.h"
#include "ops/elementwise_dispatch.h"
#include "ops/gemm.h"
#include "ops/layernorm.h"
#include "ops/softmax.h"

using namespace bertprof;

namespace {

/** A CPU-tractable BERT configuration for real-execution runs. */
BertConfig
tinyConfig()
{
    BertConfig config;
    config.name = "bert-tiny";
    config.numLayers = 2;
    config.dModel = 64;
    config.numHeads = 4;
    config.dFf = 256;
    config.vocabSize = 512;
    config.maxPositions = 64;
    config.batch = 2;
    config.seqLen = 32;
    config.maxPredictions = 4;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(argc, argv);
    const int reps = args.quick ? 3 : 30;
    Rng rng;

    struct Case {
        std::string name; ///< metric prefix
        std::function<void()> run;
        double flops = 0.0; ///< > 0: also report GFLOP/s
    };
    std::vector<Case> cases;
    // Operands live until main returns (a deque never moves its
    // elements); the cases capture them by pointer.
    std::deque<Tensor> tensors;
    const auto keep = [&](Shape shape, bool random) {
        Tensor &t = tensors.emplace_back(std::move(shape));
        if (random)
            t.fillNormal(rng);
        return &t;
    };

    for (const std::int64_t dim : {64, 128, 256}) {
        Tensor *a = keep(Shape({dim, dim}), true);
        Tensor *b = keep(Shape({dim, dim}), true);
        Tensor *c = keep(Shape({dim, dim}), false);
        cases.push_back({"gemm_" + std::to_string(dim),
                         [=] { gemm(*a, *b, *c); },
                         2.0 * static_cast<double>(dim * dim * dim)});
    }
    {
        // The attention-score shape: n x n x d/h over B*h groups.
        const std::int64_t n = 32, dh = 16, bh = 8;
        Tensor *q = keep(Shape({bh, n, dh}), true);
        Tensor *k = keep(Shape({bh, n, dh}), true);
        Tensor *s = keep(Shape({bh, n, n}), false);
        cases.push_back({"attn_score_bgemm",
                         [=] { batchedGemm(*q, *k, *s, false, true); }});
    }
    for (const std::int64_t rows : {256, 1024}) {
        Tensor *x = keep(Shape({rows, 128}), true);
        Tensor *y = keep(x->shape(), false);
        cases.push_back({"softmax_" + std::to_string(rows),
                         [=] { softmaxForward(*x, *y); }});
    }
    for (const std::int64_t rows : {256, 1024}) {
        Tensor *x = keep(Shape({rows, 256}), true);
        Tensor *y = keep(x->shape(), false);
        Tensor *gamma = keep(Shape({256}), false);
        Tensor *beta = keep(Shape({256}), false);
        Tensor *mean = keep(Shape({rows}), false);
        Tensor *rstd = keep(Shape({rows}), false);
        gamma->fill(1.0f);
        cases.push_back(
            {"layernorm_" + std::to_string(rows),
             [=] { layerNormForward(*x, *gamma, *beta, *y, *mean, *rstd); }});
    }
    for (const std::int64_t numel : {1 << 14, 1 << 18}) {
        Tensor *x = keep(Shape({numel}), true);
        Tensor *y = keep(x->shape(), false);
        cases.push_back({"gelu_" + std::to_string(numel),
                         [=] { geluForward(*x, *y); }});
    }
    {
        const std::int64_t numel = 1 << 18;
        Tensor *x = keep(Shape({numel}), true);
        Tensor *dy = keep(x->shape(), true);
        Tensor *dx = keep(x->shape(), false);
        cases.push_back({"gelu_bwd_" + std::to_string(numel),
                         [=] { geluBackward(*x, *dy, *dx); }});
    }

    // The element-wise kernels once per ISA variant, on one thread:
    // the same work as gelu_262144, gelu_bwd_262144 and softmax_1024.
    const std::int64_t ew_numel = 1 << 18, sm_rows = 1024, sm_cols = 128;
    Tensor *ew_x = keep(Shape({ew_numel}), true);
    Tensor *ew_dy = keep(ew_x->shape(), true);
    Tensor *sm_x = keep(Shape({sm_rows, sm_cols}), true);
    const auto runVariant = [=](CpuIsa isa, int kernel, Tensor &out) {
        if (kernel == 0)
            geluElementsFor(isa, ew_x->data(), nullptr, out.data(), ew_numel);
        else if (kernel == 1)
            geluGradElementsFor(isa, ew_x->data(), ew_dy->data(), out.data(),
                                ew_numel);
        else
            for (std::int64_t r = 0; r < sm_rows; ++r)
                softmaxRowFor(isa, sm_x->data() + r * sm_cols,
                              out.data() + r * sm_cols, sm_cols);
    };
    const char *const kernel_names[] = {"gelu_262144", "gelu_bwd_262144",
                                        "softmax_1024"};
    for (const CpuIsa isa : availableCpuIsas())
        for (int kernel = 0; kernel < 3; ++kernel) {
            Tensor *out =
                keep(kernel == 2 ? sm_x->shape() : ew_x->shape(), false);
            cases.push_back({std::string(kernel_names[kernel]) + "." +
                                 cpuIsaName(isa),
                             [=] { runVariant(isa, kernel, *out); }});
        }
    bool bitwise = true;
    for (int kernel = 0; kernel < 3; ++kernel) {
        Tensor want(kernel == 2 ? sm_x->shape() : ew_x->shape());
        Tensor got(want.shape());
        runVariant(CpuIsa::Sse2, kernel, want);
        for (const CpuIsa isa : availableCpuIsas()) {
            runVariant(isa, kernel, got);
            bitwise = bitwise &&
                      std::memcmp(got.data(), want.data(),
                                  static_cast<std::size_t>(got.numel()) *
                                      sizeof(float)) == 0;
        }
    }

    // Optimizer steps (the real-execution counterpart of Fig. 12a:
    // UnfusedAdam runs one kernel per elementary op).
    std::deque<Parameter> params;
    std::vector<std::unique_ptr<Optimizer>> optimizers;
    const auto addStep = [&](const std::string &name,
                             std::unique_ptr<Optimizer> opt,
                             std::int64_t numel) {
        Parameter *p = &params.emplace_back("w", Shape({numel}));
        p->value.fillNormal(rng);
        p->grad.fillNormal(rng);
        optimizers.push_back(std::move(opt));
        Optimizer *o = optimizers.back().get();
        cases.push_back({name + "_" + std::to_string(numel),
                         [=] { o->step({p}); }});
    };
    for (const std::int64_t numel : {1 << 14, 1 << 18}) {
        addStep("lamb_step", std::make_unique<Lamb>(OptimizerConfig{}),
                numel);
        addStep("unfused_adam_step",
                std::make_unique<UnfusedAdam>(OptimizerConfig{}), numel);
        addStep("fused_adam_step",
                std::make_unique<Adam>(OptimizerConfig{}), numel);
    }

    // One full tiny-BERT training iteration.
    const BertConfig config = tinyConfig();
    NnRuntime rt;
    rt.dropoutP = 0.0f;
    BertPretrainer trainer(config, &rt);
    Rng init_rng(7);
    trainer.initialize(init_rng);
    SyntheticDataset dataset(config, 11);
    Lamb lamb(OptimizerConfig{});
    const std::vector<Parameter *> trainer_params = trainer.parameters();
    cases.push_back({"tiny_bert_iteration", [&] {
                         const PretrainBatch batch = dataset.nextBatch();
                         trainer.zeroGrad();
                         (void)trainer.forwardBackward(batch);
                         lamb.step(trainer_params);
                     }});

    std::vector<bench::Config> configs;
    for (const Case &c : cases)
        configs.push_back({nullptr, c.run});
    const std::vector<bench::Stats> stats =
        bench::runRoundRobin(configs, reps);

    bench::Report report("bench_cpu_substrate", args);
    report.config("reps", reps);
    report.config("tiny_bert", "2 layers, d_model 64, B=2, n=32, LAMB");
    for (std::size_t i = 0; i < cases.size(); ++i) {
        report.millis(cases[i].name + ".ms", stats[i]);
        if (cases[i].flops > 0.0)
            report.rate(cases[i].name + ".gflops", "GFLOP/s",
                        cases[i].flops * 1e-9, stats[i]);
    }
    report.value("elementwise.variants_bitwise_equal", bitwise ? 1 : 0,
                  "bool");
    const int status = report.emit();
    return bitwise ? status : 1;
}
