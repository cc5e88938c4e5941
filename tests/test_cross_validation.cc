/**
 * Cross-validation between the two halves of the library: the CPU
 * substrate's *measured* kernel accounting must agree with the trace
 * builder's *emitted* accounting for the same configuration. Training
 * runs the unfused per-op chain, the decomposition the builder emits.
 * GEMM FLOPs use identical formulas on both sides, so they must match
 * exactly; kernel counts match structurally per taxonomy group.
 */

#include <map>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/bert_pretrainer.h"
#include "optim/lamb.h"
#include "test_helpers.h"
#include "trace/bert_trace_builder.h"

namespace bertprof {
namespace {

using testing::tinyBertConfig;

struct CrossValidation : public ::testing::Test {
    BertConfig config_ = tinyBertConfig();
    Profiler profiler_;

    void
    runSubstrateIteration()
    {
        NnRuntime rt;
        rt.profiler = &profiler_;
        rt.dropoutP = 0.0f;
        BertPretrainer trainer(config_, &rt);
        Rng init(3);
        trainer.initialize(init);
        SyntheticDataset dataset(config_, 5);
        OptimizerConfig opt_config;
        Lamb lamb(opt_config, &profiler_);
        trainer.zeroGrad();
        trainer.forwardBackward(dataset.nextBatch());
        lamb.step(trainer.parameters());
    }

    std::int64_t
    substrateGemmFlops(LayerScope scope)
    {
        std::int64_t total = 0;
        for (const auto &rec : profiler_.records())
            if (rec.scope == scope &&
                (rec.kind == OpKind::Gemm ||
                 rec.kind == OpKind::BatchedGemm))
                total += rec.stats.flops;
        return total;
    }

    std::int64_t
    traceGemmFlops(const OpTrace &trace, LayerScope scope)
    {
        std::int64_t total = 0;
        for (const auto &op : trace.ops)
            if (op.scope == scope &&
                (op.kind == OpKind::Gemm ||
                 op.kind == OpKind::BatchedGemm))
                total += op.stats.flops;
        return total;
    }
};

TEST_F(CrossValidation, TransformerGemmFlopsMatchExactly)
{
    runSubstrateIteration();
    BertTraceBuilder builder(config_);
    const OpTrace trace = builder.buildIteration();
    EXPECT_EQ(substrateGemmFlops(LayerScope::Transformer),
              traceGemmFlops(trace, LayerScope::Transformer));
}

TEST_F(CrossValidation, OutputHeadGemmFlopsMatchExactly)
{
    runSubstrateIteration();
    BertTraceBuilder builder(config_);
    const OpTrace trace = builder.buildIteration();
    EXPECT_EQ(substrateGemmFlops(LayerScope::Output),
              traceGemmFlops(trace, LayerScope::Output));
}

TEST_F(CrossValidation, GemmKernelCountsMatch)
{
    runSubstrateIteration();
    BertTraceBuilder builder(config_);
    const OpTrace trace = builder.buildIteration();
    auto count = [](auto &&records, auto get_kind, auto get_scope) {
        std::int64_t n = 0;
        for (const auto &r : records) {
            const OpKind kind = get_kind(r);
            if ((kind == OpKind::Gemm || kind == OpKind::BatchedGemm) &&
                get_scope(r) == LayerScope::Transformer)
                ++n;
        }
        return n;
    };
    const std::int64_t substrate = count(
        profiler_.records(),
        [](const ProfileRecord &r) { return r.kind; },
        [](const ProfileRecord &r) { return r.scope; });
    const std::int64_t modeled = count(
        trace.ops, [](const OpDesc &op) { return op.kind; },
        [](const OpDesc &op) { return op.scope; });
    EXPECT_EQ(substrate, modeled);
}

TEST_F(CrossValidation, LambUpdateBytesMatchWithinTolerance)
{
    runSubstrateIteration();
    BertTraceBuilder builder(config_);
    const OpTrace trace = builder.buildUpdate();
    std::int64_t substrate = 0;
    for (const auto &rec : profiler_.records())
        if (rec.phase == Phase::Update)
            substrate += rec.stats.bytesTotal();
    std::int64_t modeled = 0;
    for (const auto &op : trace.ops)
        modeled += op.stats.bytesTotal();
    // Same structure (grad-norm + 2 stages x tensors); both count
    // identical reads/writes per element.
    EXPECT_EQ(substrate, modeled);
}

TEST_F(CrossValidation, LambKernelCountMatches)
{
    runSubstrateIteration();
    BertTraceBuilder builder(config_);
    std::int64_t substrate = 0;
    for (const auto &rec : profiler_.records())
        if (rec.phase == Phase::Update)
            ++substrate;
    EXPECT_EQ(substrate,
              static_cast<std::int64_t>(builder.buildUpdate().size()));
}

} // namespace
} // namespace bertprof
