/**
 * @file
 * Forward-only (eval) execution mode: setTraining propagates through
 * the module tree, eval forwards are bitwise deterministic across
 * repeated calls and thread counts, never touch the dropout RNG
 * stream, match a p=0 training forward exactly, and leave no state a
 * backward pass could silently consume.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "eval_oracle.h"
#include "nn/attention.h"
#include "nn/bert_classifier.h"
#include "nn/bert_pretrainer.h"
#include "runtime/config.h"
#include "test_helpers.h"

namespace bertprof {
namespace {

using ::bertprof::testing::tinyBertConfig;
using ::bertprof::testing::trainingClassifierLogits;
using ::bertprof::testing::trainingHidden;

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    if (!(a.shape() == b.shape()))
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** Flat [batch*seq] ids for a full-length batch. */
void
makeIds(const BertConfig &config, std::vector<std::int64_t> &tokens,
        std::vector<std::int64_t> &segments, std::uint64_t seed)
{
    Rng rng(seed);
    const auto n = static_cast<std::size_t>(config.tokens());
    tokens.resize(n);
    segments.assign(n, 0);
    for (auto &t : tokens)
        t = rng.uniformInt(4, config.vocabSize - 1);
}

TEST(EvalMode, SetTrainingPropagatesThroughTree)
{
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    EXPECT_TRUE(clf.isTraining());
    clf.setTraining(false);
    EXPECT_FALSE(clf.isTraining());
    // Propagation is observable at the leaves: a direct eval forward
    // on the inner BertModel is only legal when the flag reached it.
    EXPECT_FALSE(clf.model().isTraining());
    clf.setTraining(true);
    EXPECT_TRUE(clf.model().isTraining());
}

TEST(EvalMode, RepeatedEvalForwardsAreBitwiseIdentical)
{
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    rt.dropoutP = 0.1f;
    BertClassifier clf(config, &rt);
    Rng init(11);
    clf.initialize(init);
    clf.setTraining(false);

    std::vector<std::int64_t> tokens, segments;
    makeIds(config, tokens, segments, 21);
    Tensor a = clf.forwardLogitsEval(tokens, segments, config.batch,
                                     config.seqLen, {});
    Tensor b = clf.forwardLogitsEval(tokens, segments, config.batch,
                                     config.seqLen, {});
    EXPECT_TRUE(bitwiseEqual(a, b));
}

TEST(EvalMode, EvalForwardLeavesRngStreamUntouched)
{
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    rt.dropoutP = 0.1f; // a training forward WOULD draw from the rng
    BertClassifier clf(config, &rt);
    Rng init(12);
    clf.initialize(init);
    clf.setTraining(false);

    std::vector<std::int64_t> tokens, segments;
    makeIds(config, tokens, segments, 22);
    const std::string before = rt.rng.serialize();
    (void)clf.forwardLogitsEval(tokens, segments, config.batch,
                                config.seqLen, {});
    EXPECT_EQ(before, rt.rng.serialize());
}

/** Exposes the attention's Linear children to the retention check. */
struct AttentionProbe : MultiHeadAttention {
    using MultiHeadAttention::MultiHeadAttention;

    std::vector<Linear *>
    projections()
    {
        std::vector<Module *> children;
        collectChildren(children);
        std::vector<Linear *> out;
        for (Module *m : children)
            out.push_back(dynamic_cast<Linear *>(m));
        return out;
    }
};

TEST(EvalMode, EvalForwardAfterTrainingReleasesProjectionInputs)
{
    // The eval schedule's packed QKV GEMM reads Wq/Wk/Wv directly, so
    // it must drop what the last training forward saved in those
    // Linears as well as in Wo: a train-then-serve process holds no
    // [B*n, d] activation per projection.
    NnRuntime rt;
    AttentionProbe attn("attn", 32, 4, &rt);
    Rng init(19);
    attn.initialize(init);
    Tensor x(Shape({2 * 8, 32}));
    x.fillNormal(init);
    Tensor mask(Shape({8, 8}));

    (void)attn.forward(x, mask, 2, 8);
    const std::vector<Linear *> linears = attn.projections();
    ASSERT_EQ(linears.size(), 4u);
    for (const Linear *l : linears) {
        ASSERT_NE(l, nullptr);
        EXPECT_TRUE(l->hasSavedInput());
    }
    attn.setTraining(false);
    (void)attn.forward(x, mask, 2, 8);
    for (Linear *l : linears)
        EXPECT_FALSE(l->hasSavedInput()) << l->weight().name;
}

TEST(EvalMode, EvalMatchesTrainingForwardWithZeroDropout)
{
    // The whole-model check of the fused eval schedule: a training
    // forward at dropout 0 runs the unfused per-op chain, which
    // computes the same function. Swept over thread counts, the dense
    // and the ragged per-sequence [B, n, n] mask, and both the encoder
    // output and the classifier logits. Bitwise at this size, although
    // ops/fused.h promises the fused attention only a tolerance.
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    rt.dropoutP = 0.0f;
    BertClassifier clf(config, &rt);
    Rng init(13);
    clf.initialize(init);
    clf.setTraining(false);
    BertModel &model = clf.model();

    std::vector<std::int64_t> tokens, segments;
    makeIds(config, tokens, segments, 23);
    const std::vector<std::int64_t> dense;
    const std::vector<std::int64_t> ragged = {config.seqLen, 5};
    for (int threads : {1, 8}) {
        setNumThreads(threads);
        for (const auto *lengths : {&dense, &ragged}) {
            const char *mask = lengths->empty() ? "dense" : "ragged";
            const Tensor trained =
                trainingHidden(model, tokens, segments, *lengths);
            const Tensor evaled = model.forwardEval(
                tokens, segments, config.batch, config.seqLen, *lengths);
            EXPECT_TRUE(bitwiseEqual(trained, evaled))
                << mask << " mask at " << threads << " threads";

            const Tensor logits_ref =
                trainingClassifierLogits(clf, tokens, segments, *lengths);
            const Tensor logits = clf.forwardLogitsEval(
                tokens, segments, config.batch, config.seqLen, *lengths);
            EXPECT_TRUE(bitwiseEqual(logits_ref, logits))
                << mask << " mask at " << threads << " threads";
        }
    }
    setNumThreads(0); // back to the environment default
}

TEST(EvalMode, EvalForwardIsThreadCountInvariant)
{
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(14);
    clf.initialize(init);
    clf.setTraining(false);

    std::vector<std::int64_t> tokens, segments;
    makeIds(config, tokens, segments, 24);
    setNumThreads(1);
    Tensor serial = clf.forwardLogitsEval(tokens, segments, config.batch,
                                          config.seqLen, {});
    setNumThreads(8);
    Tensor parallel = clf.forwardLogitsEval(tokens, segments,
                                            config.batch, config.seqLen,
                                            {});
    setNumThreads(0); // back to the environment default
    EXPECT_TRUE(bitwiseEqual(serial, parallel));
}

TEST(EvalMode, DynamicShapesSmallerThanConfigWork)
{
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(15);
    clf.initialize(init);
    clf.setTraining(false);

    // One sequence at an off-config shape (batch 3, seq 8 != 2x16).
    const std::int64_t batch = 3, seq = 8;
    std::vector<std::int64_t> tokens(
        static_cast<std::size_t>(batch * seq), 7);
    std::vector<std::int64_t> segments(tokens.size(), 0);
    Tensor logits = clf.forwardLogitsEval(tokens, segments, batch, seq,
                                          {seq, seq / 2, seq});
    EXPECT_EQ(logits.shape(), Shape({batch, config.numClasses}));
}

TEST(EvalMode, MlmEvalLogitsMatchConfigShape)
{
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertPretrainer pretrainer(config, &rt);
    Rng init(16);
    pretrainer.initialize(init);
    pretrainer.setTraining(false);

    const std::int64_t batch = 2, seq = 8;
    std::vector<std::int64_t> tokens(
        static_cast<std::size_t>(batch * seq), 9);
    std::vector<std::int64_t> segments(tokens.size(), 0);
    const std::vector<std::int64_t> positions = {1, 3, seq + 2};
    Tensor logits = pretrainer.mlmLogitsEval(tokens, segments, batch, seq,
                                             {}, positions);
    EXPECT_EQ(logits.shape(),
              Shape({static_cast<std::int64_t>(positions.size()),
                     config.vocabSize}));
    // Repeatable bitwise, like every eval path.
    Tensor again = pretrainer.mlmLogitsEval(tokens, segments, batch, seq,
                                            {}, positions);
    EXPECT_TRUE(bitwiseEqual(logits, again));
}

TEST(EvalModeDeath, BackwardAfterEvalForwardDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertModel model(config, &rt);
    Rng init(17);
    model.initialize(init);
    model.setTraining(false);

    std::vector<std::int64_t> tokens(
        static_cast<std::size_t>(config.tokens()), 5);
    std::vector<std::int64_t> segments(tokens.size(), 0);
    Tensor hidden = model.forwardEval(tokens, segments, config.batch,
                                      config.seqLen, {});
    Tensor dhidden(hidden.shape());
    dhidden.fill(1.0f);
    // The eval forward retained nothing; the backward contract check
    // on the (empty) embedding dropout mask must kill the process
    // instead of silently consuming stale state.
    EXPECT_EXIT(model.backward(dhidden), ::testing::ExitedWithCode(1),
                "contract failed");
}

TEST(EvalModeDeath, ForwardEvalInTrainingModeDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertModel model(config, &rt);
    Rng init(18);
    model.initialize(init);

    std::vector<std::int64_t> tokens(
        static_cast<std::size_t>(config.tokens()), 5);
    std::vector<std::int64_t> segments(tokens.size(), 0);
    EXPECT_EXIT((void)model.forwardEval(tokens, segments, config.batch,
                                        config.seqLen, {}),
                ::testing::ExitedWithCode(1), "requirement failed");
}

} // namespace
} // namespace bertprof
