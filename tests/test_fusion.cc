/**
 * Fused-kernel parity suite: every fused kernel against its unfused
 * oracle chain at 1 and 8 threads; the eval forward (the fused
 * schedule) against a training-mode forward at dropout 0 (the unfused
 * chain) through EncoderLayer, BertClassifier and BertPretrainer; a
 * training step after an eval forward against one without it; and
 * served replies against a direct eval forward of the same request.
 * The parity class per kernel (bitwise versus tolerance) is the
 * contract documented in ops/fused.h.
 */

#include <cmath>
#include <cstring>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval_oracle.h"
#include "nn/encoder_layer.h"
#include "ops/activation.h"
#include "ops/elementwise.h"
#include "ops/fused.h"
#include "ops/gemm.h"
#include "ops/layernorm.h"
#include "ops/reshape.h"
#include "ops/softmax.h"
#include "runtime/config.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "test_helpers.h"

namespace bertprof {
namespace {

using ::bertprof::testing::tinyBertConfig;
using ::bertprof::testing::trainingClassifierLogits;
using ::bertprof::testing::trainingMlmLogits;

constexpr std::int64_t kPadId = 3;

/** Restore the process-wide knobs this suite sweeps. */
struct KnobGuard {
    ~KnobGuard()
    {
        clearGemmImplOverride();
        setNumThreads(0);
    }
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

const int kThreadSweep[] = {1, 8};

TEST(FusedKernels, BiasGeluBitwiseMatchesUnfused)
{
    KnobGuard guard;
    Rng rng(11);
    Tensor in(Shape({64, 48}));
    Tensor bias(Shape({48}));
    in.fillNormal(rng);
    bias.fillNormal(rng);

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        Tensor pre_ref(in.shape());
        Tensor out_ref(in.shape());
        biasForward(in, bias, pre_ref);
        geluForward(pre_ref, out_ref);

        Tensor out(in.shape());
        fusedBiasGeluForward(in, bias, out);
        EXPECT_TRUE(bitwiseEqual(out, out_ref)) << threads << " threads";
    }
}

TEST(FusedKernels, ResidualLayerNormBitwiseMatchesUnfused)
{
    KnobGuard guard;
    Rng rng(12);
    Tensor a(Shape({32, 64}));
    Tensor b(Shape({32, 64}));
    Tensor gamma(Shape({64}));
    Tensor beta(Shape({64}));
    a.fillNormal(rng);
    b.fillNormal(rng);
    gamma.fillNormal(rng);
    beta.fillNormal(rng);

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        Tensor sum_ref(a.shape());
        Tensor out_ref(a.shape());
        Tensor mean_ref(Shape({32}));
        Tensor rstd_ref(Shape({32}));
        addForward(a, b, sum_ref);
        layerNormForward(sum_ref, gamma, beta, out_ref, mean_ref,
                         rstd_ref);

        Tensor out(a.shape());
        Tensor mean(Shape({32}));
        Tensor rstd(Shape({32}));
        fusedResidualLayerNormForward(a, b, gamma, beta, out, mean, rstd);
        EXPECT_TRUE(bitwiseEqual(out, out_ref)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(mean, mean_ref));
        EXPECT_TRUE(bitwiseEqual(rstd, rstd_ref));
    }
}

TEST(FusedKernels, BiasGeluOddWidthBitwise)
{
    // A width that is no multiple of any vector or chunk size, and
    // fewer rows than threads, so every tail path runs.
    KnobGuard guard;
    Rng rng(16);
    Tensor in(Shape({5, 37}));
    Tensor bias(Shape({37}));
    in.fillNormal(rng);
    bias.fillNormal(rng);

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        Tensor pre_ref(in.shape());
        Tensor out_ref(in.shape());
        biasForward(in, bias, pre_ref);
        geluForward(pre_ref, out_ref);

        Tensor out(in.shape());
        fusedBiasGeluForward(in, bias, out);
        EXPECT_TRUE(bitwiseEqual(out, out_ref)) << threads << " threads";
    }
}

TEST(FusedKernels, ResidualLayerNormOddWidthBitwise)
{
    KnobGuard guard;
    Rng rng(17);
    Tensor a(Shape({3, 37}));
    Tensor b(Shape({3, 37}));
    Tensor gamma(Shape({37}));
    Tensor beta(Shape({37}));
    a.fillNormal(rng);
    b.fillNormal(rng);
    gamma.fillNormal(rng);
    beta.fillNormal(rng);

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        Tensor sum_ref(a.shape());
        Tensor out_ref(a.shape());
        Tensor mean_ref(Shape({3}));
        Tensor rstd_ref(Shape({3}));
        addForward(a, b, sum_ref);
        layerNormForward(sum_ref, gamma, beta, out_ref, mean_ref,
                         rstd_ref);

        Tensor out(a.shape());
        Tensor mean(Shape({3}));
        Tensor rstd(Shape({3}));
        fusedResidualLayerNormForward(a, b, gamma, beta, out, mean, rstd);
        EXPECT_TRUE(bitwiseEqual(out, out_ref)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(mean, mean_ref)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(rstd, rstd_ref)) << threads << " threads";
    }
}

TEST(FusedKernels, QkvForwardBitwiseMatchesUnfusedOnBothEngines)
{
    KnobGuard guard;
    const std::int64_t batch = 2, seq = 16, d_model = 32;
    const std::int64_t heads = 4;
    Rng rng(13);
    Tensor x(Shape({batch * seq, d_model}));
    x.fillNormal(rng);
    Tensor w[3] = {Tensor(Shape({d_model, d_model})),
                   Tensor(Shape({d_model, d_model})),
                   Tensor(Shape({d_model, d_model}))};
    Tensor b[3] = {Tensor(Shape({d_model})), Tensor(Shape({d_model})),
                   Tensor(Shape({d_model}))};
    for (int i = 0; i < 3; ++i) {
        w[i].fillNormal(rng);
        b[i].fillNormal(rng);
    }

    const Shape split_shape({batch * heads, seq, d_model / heads});
    for (GemmImpl impl : {GemmImpl::Packed, GemmImpl::Reference}) {
        setGemmImpl(impl);
        for (int threads : kThreadSweep) {
            setNumThreads(threads);
            Tensor ref[3] = {Tensor(split_shape), Tensor(split_shape),
                             Tensor(split_shape)};
            for (int i = 0; i < 3; ++i) {
                Tensor proj(Shape({batch * seq, d_model}));
                gemm(x, w[i], proj, false, true);
                biasForward(proj, b[i], proj);
                splitHeads(proj, batch, seq, heads, ref[i]);
            }

            Tensor q3d(split_shape), k3d(split_shape), v3d(split_shape);
            fusedQkvForward(x, w[0], w[1], w[2], b[0], b[1], b[2], batch,
                            seq, heads, q3d, k3d, v3d);
            EXPECT_TRUE(bitwiseEqual(q3d, ref[0]))
                << gemmImplName(impl) << " " << threads << " threads";
            EXPECT_TRUE(bitwiseEqual(k3d, ref[1]))
                << gemmImplName(impl) << " " << threads << " threads";
            EXPECT_TRUE(bitwiseEqual(v3d, ref[2]))
                << gemmImplName(impl) << " " << threads << " threads";
        }
    }
}

TEST(FusedKernels, AttentionEvalCloseToUnfusedChain)
{
    KnobGuard guard;
    const std::int64_t batch = 2, seq = 12, d_model = 32;
    const std::int64_t heads = 4, dh = d_model / heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Rng rng(15);
    const Shape split_shape({batch * heads, seq, dh});
    Tensor q3d(split_shape), k3d(split_shape), v3d(split_shape);
    q3d.fillNormal(rng);
    k3d.fillNormal(rng);
    v3d.fillNormal(rng);

    // Broadcast [n, n] mask and per-sequence [B, n, n] mask, each
    // with a masked-out tail (large negative additive values).
    Tensor mask2(Shape({seq, seq}));
    for (std::int64_t i = 0; i < seq; ++i)
        for (std::int64_t j = 0; j < seq; ++j)
            mask2.at(i, j) = (j >= seq - 2) ? -1e9f : 0.0f;
    Tensor mask3(Shape({batch, seq, seq}));
    for (std::int64_t s = 0; s < batch; ++s)
        for (std::int64_t i = 0; i < seq; ++i)
            for (std::int64_t j = 0; j < seq; ++j)
                mask3.at(s * seq * seq + i * seq + j) =
                    (j >= seq - 1 - s) ? -1e9f : 0.0f;

    for (const Tensor *mask : {&mask2, &mask3}) {
        const bool per_seq = mask->shape().rank() == 3;
        for (int threads : kThreadSweep) {
            setNumThreads(threads);
            Tensor scores(Shape({batch * heads, seq, seq}));
            batchedGemm(q3d, k3d, scores, false, true);
            scaleForward(scores, scale, scores);
            if (per_seq)
                batchMaskAddForward(scores, *mask, heads, scores);
            else
                maskAddForward(scores, *mask, scores);
            Tensor probs(scores.shape());
            softmaxForward(scores, probs);
            Tensor ctx_ref(split_shape);
            batchedGemm(probs, v3d, ctx_ref);

            Tensor ctx(split_shape);
            fusedAttentionEvalForward(q3d, k3d, v3d, *mask, heads, scale,
                                      ctx);
            EXPECT_LT(maxAbsDiff(ctx, ctx_ref), 1e-5)
                << (per_seq ? "per-seq" : "broadcast") << " mask at "
                << threads << " threads";
        }
    }
}

/** The unfused score -> mask -> softmax -> context chain. */
Tensor
unfusedAttention(const Tensor &q3d, const Tensor &k3d, const Tensor &v3d,
                 const Tensor &mask, std::int64_t heads, float scale)
{
    const std::int64_t groups = q3d.shape().dim(0);
    const std::int64_t seq = q3d.shape().dim(1);
    Tensor scores(Shape({groups, seq, seq}));
    batchedGemm(q3d, k3d, scores, false, true);
    scaleForward(scores, scale, scores);
    if (mask.shape().rank() == 3)
        batchMaskAddForward(scores, mask, heads, scores);
    else
        maskAddForward(scores, mask, scores);
    Tensor probs(scores.shape());
    softmaxForward(scores, probs);
    Tensor ctx(q3d.shape());
    batchedGemm(probs, v3d, ctx);
    return ctx;
}

TEST(FusedKernels, AttentionEvalSingleKeyReturnsValue)
{
    // With one key the softmax weight is exactly 1, so the context is
    // the value row itself.
    KnobGuard guard;
    const std::int64_t groups = 6, dh = 8;
    Rng rng(18);
    const Shape split_shape({groups, 1, dh});
    Tensor q3d(split_shape), k3d(split_shape), v3d(split_shape);
    q3d.fillNormal(rng);
    k3d.fillNormal(rng);
    v3d.fillNormal(rng);
    Tensor mask(Shape({1, 1}));

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        Tensor ctx(split_shape);
        fusedAttentionEvalForward(q3d, k3d, v3d, mask, 2, 0.5f, ctx);
        EXPECT_LT(maxAbsDiff(ctx, v3d), 1e-6) << threads << " threads";
    }
}

TEST(FusedKernels, AttentionEvalLongRaggedSequenceCloseToUnfused)
{
    // A sequence longer than one score tile and no multiple of it,
    // with a different padded tail per sequence.
    KnobGuard guard;
    const std::int64_t batch = 3, seq = 67, heads = 2, dh = 16;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Rng rng(19);
    const Shape split_shape({batch * heads, seq, dh});
    Tensor q3d(split_shape), k3d(split_shape), v3d(split_shape);
    q3d.fillNormal(rng);
    k3d.fillNormal(rng);
    v3d.fillNormal(rng);
    const std::int64_t lengths[batch] = {seq, 40, 1};
    Tensor mask(Shape({batch, seq, seq}));
    for (std::int64_t s = 0; s < batch; ++s)
        for (std::int64_t i = 0; i < seq; ++i)
            for (std::int64_t j = 0; j < seq; ++j)
                mask.at(s * seq * seq + i * seq + j) =
                    (j >= lengths[s]) ? -1e9f : 0.0f;

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        const Tensor ctx_ref =
            unfusedAttention(q3d, k3d, v3d, mask, heads, scale);
        Tensor ctx(split_shape);
        fusedAttentionEvalForward(q3d, k3d, v3d, mask, heads, scale, ctx);
        EXPECT_LT(maxAbsDiff(ctx, ctx_ref), 1e-5) << threads << " threads";
    }
}

TEST(FusedKernels, AttentionEvalThreadInvariantBitwise)
{
    KnobGuard guard;
    const std::int64_t batch = 2, seq = 24, heads = 4, dh = 8;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Rng rng(20);
    const Shape split_shape({batch * heads, seq, dh});
    Tensor q3d(split_shape), k3d(split_shape), v3d(split_shape);
    q3d.fillNormal(rng);
    k3d.fillNormal(rng);
    v3d.fillNormal(rng);
    Tensor mask(Shape({seq, seq}));

    setNumThreads(1);
    Tensor ctx1(split_shape);
    fusedAttentionEvalForward(q3d, k3d, v3d, mask, heads, scale, ctx1);
    setNumThreads(8);
    Tensor ctx8(split_shape);
    fusedAttentionEvalForward(q3d, k3d, v3d, mask, heads, scale, ctx8);
    EXPECT_TRUE(bitwiseEqual(ctx8, ctx1));
}

/**
 * One encoder layer and its two schedules: oracle() is a training-mode
 * forward at dropout 0 (the unfused chain), fused() the eval forward.
 */
struct LayerSchedules {
    NnRuntime rt;
    EncoderLayer layer;

    LayerSchedules() : layer("enc", 32, 4, 64, &rt)
    {
        Rng init(7);
        layer.initialize(init);
        rt.dropoutP = 0.0f;
    }

    Tensor
    oracle(const Tensor &x, const Tensor &mask, std::int64_t batch,
           std::int64_t seq)
    {
        layer.setTraining(true);
        return layer.forward(x, mask, batch, seq);
    }

    Tensor
    fused(const Tensor &x, const Tensor &mask, std::int64_t batch,
          std::int64_t seq)
    {
        layer.setTraining(false);
        return layer.forward(x, mask, batch, seq);
    }
};

TEST(FusionEval, EncoderLayerFusedCloseToUnfused)
{
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        LayerSchedules layer;
        Rng data(23);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({16, 16}));

        Tensor y_ref = layer.oracle(x, mask, 2, 16);
        Tensor y = layer.fused(x, mask, 2, 16);
        // Fused attention reassociates the score/context dots.
        EXPECT_LT(maxAbsDiff(y, y_ref), 1e-4) << threads << " threads";
    }
}

TEST(FusionEval, EncoderLayerPerSequenceMaskCloseToUnfused)
{
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        LayerSchedules layer;
        Rng data(24);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({2, 16, 16}));
        for (std::int64_t i = 0; i < mask.numel(); ++i)
            mask.at(i) = (i % 7 == 0) ? -1e9f : 0.0f;

        Tensor y_ref = layer.oracle(x, mask, 2, 16);
        Tensor y = layer.fused(x, mask, 2, 16);
        EXPECT_LT(maxAbsDiff(y, y_ref), 1e-4) << threads << " threads";
    }
}

TEST(FusionEval, EncoderLayerShapeChangesCarryNoState)
{
    // The fused kernels keep per-thread scratch buffers. Alternating
    // shapes must neither disturb parity nor leave state behind: a
    // repeated shape reproduces its first output bitwise.
    KnobGuard guard;
    setNumThreads(8);
    LayerSchedules layer;
    const std::int64_t shapes[][2] = {{2, 16}, {1, 5}, {3, 9}, {2, 16}};
    Tensor first;
    for (const auto &bs : shapes) {
        const std::int64_t batch = bs[0], seq = bs[1];
        Rng data(25);
        Tensor x(Shape({batch * seq, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({seq, seq}));

        Tensor y_ref = layer.oracle(x, mask, batch, seq);
        Tensor y = layer.fused(x, mask, batch, seq);
        EXPECT_LT(maxAbsDiff(y, y_ref), 1e-4)
            << "batch " << batch << " seq " << seq;
        if (first.numel() == 0) {
            first = y;
        } else if (y.shape() == first.shape()) {
            EXPECT_TRUE(bitwiseEqual(y, first));
        }
    }
}

TEST(FusionEval, EncoderLayerReadsLiveWeights)
{
    // The eval schedule packs [Wq; Wk; Wv] on every call, so a weight
    // update between two eval forwards (an optimizer step) shows in
    // the second one, which still matches the training-mode oracle.
    KnobGuard guard;
    setNumThreads(8);
    LayerSchedules layer;
    Rng data(25);
    Tensor x(Shape({2 * 16, 32}));
    x.fillNormal(data);
    Tensor mask(Shape({16, 16}));

    const Tensor before = layer.fused(x, mask, 2, 16);
    Rng step(26);
    for (Parameter *p : layer.layer.parameters()) {
        Tensor delta(p->value.shape());
        delta.fillNormal(step, 0.0f, 0.05f);
        accumulate(p->value, delta);
    }
    const Tensor after = layer.fused(x, mask, 2, 16);
    EXPECT_GT(maxAbsDiff(after, before), 1e-3);
    EXPECT_LT(maxAbsDiff(after, layer.oracle(x, mask, 2, 16)), 1e-4);
}

TEST(FusionTraining, EvalForwardLeavesLayerTrainingStepUnchanged)
{
    // Both schedules run on the same modules and runtime: an eval
    // forward first must leave nothing (saved activations, dropout RNG
    // draws) that changes the next training forward or its gradients.
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        NnRuntime rt_a, rt_b;
        rt_a.dropoutP = 0.1f;
        rt_b.dropoutP = 0.1f;
        EncoderLayer a("enc", 32, 4, 64, &rt_a);
        EncoderLayer b("enc", 32, 4, 64, &rt_b);
        Rng init_a(7), init_b(7);
        a.initialize(init_a);
        b.initialize(init_b);
        Rng data(21);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({16, 16}));
        Tensor dout(x.shape());
        Rng grad_rng(22);
        dout.fillNormal(grad_rng);

        b.setTraining(false);
        b.forward(x, mask, 2, 16);
        b.setTraining(true);

        a.zeroGrad();
        b.zeroGrad();
        const Tensor y_a = a.forward(x, mask, 2, 16);
        const Tensor y_b = b.forward(x, mask, 2, 16);
        EXPECT_TRUE(bitwiseEqual(y_b, y_a)) << threads << " threads";
        const Tensor dx_a = a.backward(dout);
        const Tensor dx_b = b.backward(dout);
        EXPECT_TRUE(bitwiseEqual(dx_b, dx_a)) << threads << " threads";
        const std::vector<Parameter *> pa = a.parameters();
        const std::vector<Parameter *> pb = b.parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i)
            EXPECT_TRUE(bitwiseEqual(pb[i]->grad, pa[i]->grad))
                << pa[i]->name << " at " << threads << " threads";
    }
}

/** A fixed padded batch at the tiny config's shape. */
struct EvalInputs {
    std::vector<std::int64_t> tokens, segments, lengths;
};

EvalInputs
evalInputs(const BertConfig &config, std::uint64_t seed,
           std::int64_t short_len)
{
    EvalInputs in;
    Rng rng(seed);
    for (std::int64_t i = 0; i < config.tokens(); ++i) {
        in.tokens.push_back(rng.uniformInt(0, config.vocabSize - 1));
        in.segments.push_back(i % 2);
    }
    in.lengths = {config.seqLen, short_len};
    return in;
}

TEST(FusionEval, ClassifierLogitsCloseAndThreadInvariant)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    rt.dropoutP = 0.0f;
    BertClassifier clf(config, &rt);
    Rng init(32);
    clf.initialize(init);
    clf.setTraining(false);
    const EvalInputs in = evalInputs(config, 31, config.seqLen - 3);
    auto fused = [&]() {
        return clf.forwardLogitsEval(in.tokens, in.segments, config.batch,
                                     config.seqLen, in.lengths);
    };

    setNumThreads(1);
    Tensor ref =
        trainingClassifierLogits(clf, in.tokens, in.segments, in.lengths);
    Tensor fused1 = fused();
    EXPECT_LT(maxAbsDiff(fused1, ref), 1e-4);

    // Both schedules are bitwise thread-count invariant (deterministic
    // parallelFor chunking), like every other kernel in the repo.
    setNumThreads(8);
    Tensor fused8 = fused();
    EXPECT_TRUE(bitwiseEqual(fused8, fused1));
    Tensor ref8 =
        trainingClassifierLogits(clf, in.tokens, in.segments, in.lengths);
    EXPECT_TRUE(bitwiseEqual(ref8, ref));
}

TEST(FusionEval, MlmLogitsCloseAndThreadInvariant)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    rt.dropoutP = 0.0f;
    BertPretrainer model(config, &rt);
    Rng init(34);
    model.initialize(init);
    model.setTraining(false);
    const EvalInputs in = evalInputs(config, 33, config.seqLen - 5);
    const std::int64_t seq = config.seqLen;
    const std::vector<std::int64_t> positions = {0, 7, seq + 2, seq + 9};

    setNumThreads(1);
    Tensor ref = trainingMlmLogits(model, in.tokens, in.segments,
                                   in.lengths, positions);
    Tensor fused1 = model.mlmLogitsEval(in.tokens, in.segments,
                                        config.batch, seq, in.lengths,
                                        positions);
    EXPECT_LT(maxAbsDiff(fused1, ref), 1e-4);

    setNumThreads(8);
    Tensor fused8 = model.mlmLogitsEval(in.tokens, in.segments,
                                        config.batch, seq, in.lengths,
                                        positions);
    EXPECT_TRUE(bitwiseEqual(fused8, fused1));
}

TEST(FusionTraining, EvalForwardLeavesPretrainerStepUnchanged)
{
    // The whole model, embeddings to both heads: a pretraining step
    // after an eval MLM forward is bitwise the step without it.
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt_a, rt_b;
    rt_a.dropoutP = 0.1f;
    rt_b.dropoutP = 0.1f;
    BertPretrainer a(config, &rt_a), b(config, &rt_b);
    Rng init_a(35), init_b(35);
    a.initialize(init_a);
    b.initialize(init_b);
    SyntheticDataset dataset(config, 36);
    const PretrainBatch batch = dataset.nextBatch();

    const EvalInputs in = evalInputs(config, 37, config.seqLen - 5);
    b.setTraining(false);
    b.mlmLogitsEval(in.tokens, in.segments, config.batch, config.seqLen,
                    in.lengths, {0, 7, config.seqLen + 2});
    b.setTraining(true);

    a.zeroGrad();
    b.zeroGrad();
    const PretrainStepResult ref = a.forwardBackward(batch);
    const PretrainStepResult after_eval = b.forwardBackward(batch);
    EXPECT_EQ(after_eval.mlmLoss, ref.mlmLoss);
    EXPECT_EQ(after_eval.nspLoss, ref.nspLoss);

    std::vector<Parameter *> pa, pb;
    a.collectParameters(pa);
    b.collectParameters(pb);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_TRUE(bitwiseEqual(pb[i]->grad, pa[i]->grad)) << pa[i]->name;
}

/** Bitwise equality of a reply's logits and a [1 or p, cols] tensor. */
bool
sameLogits(const std::vector<float> &reply, const Tensor &direct)
{
    return static_cast<std::int64_t>(reply.size()) == direct.numel() &&
           std::memcmp(reply.data(), direct.data(),
                       reply.size() * sizeof(float)) == 0;
}

TEST(FusionServe, EndToEndLogitsParity)
{
    // Each served reply (a bucketed, padded, batched eval forward)
    // against a direct eval forward of the same request alone and
    // unpadded: bitwise, by DESIGN.md §11.2's padding argument.
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(41);
    clf.initialize(init);
    clf.setTraining(false);
    ClassifierEngine engine(clf, kPadId);

    Rng body(42);
    std::vector<InferRequest> requests;
    std::vector<Tensor> direct;
    for (std::uint64_t id = 0; id < 10; ++id) {
        const std::int64_t len = 4 + static_cast<std::int64_t>(id);
        requests.push_back(
            syntheticRequest(body, id, len, config.vocabSize));
        // Before the server starts: the eval forward is not reentrant.
        direct.push_back(clf.forwardLogitsEval(
            requests.back().tokenIds, requests.back().segmentIds, 1, len,
            {}));
    }

    ServeOptions options;
    options.maxBatch = 4;
    options.maxWaitUs = 200;
    options.defaultDeadlineUs = 60000000;
    InferenceServer server(engine, BucketSpec({8, 16, 32}), options);
    std::vector<std::future<InferReply>> futures;
    for (const InferRequest &req : requests)
        futures.push_back(server.submit(req));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        InferReply reply = futures[i].get();
        ASSERT_TRUE(reply.ok) << "request " << i;
        EXPECT_TRUE(sameLogits(reply.logits, direct[i])) << "request " << i;
    }
}

TEST(FusionServe, MlmEndToEndLogitsParity)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertPretrainer model(config, &rt);
    Rng init(43);
    model.initialize(init);
    model.setTraining(false);
    MlmEngine engine(model, kPadId);

    Rng body(44);
    std::vector<InferRequest> requests;
    std::vector<Tensor> direct;
    for (std::uint64_t id = 0; id < 6; ++id) {
        const std::int64_t len = 4 + 2 * static_cast<std::int64_t>(id);
        InferRequest req = syntheticRequest(body, id, len, config.vocabSize);
        req.mlmPositions = {0, len - 1};
        direct.push_back(model.mlmLogitsEval(req.tokenIds, req.segmentIds,
                                             1, len, {}, req.mlmPositions));
        requests.push_back(std::move(req));
    }

    ServeOptions options;
    options.maxBatch = 4;
    options.maxWaitUs = 200;
    options.defaultDeadlineUs = 60000000;
    InferenceServer server(engine, BucketSpec({8, 16, 32}), options);
    std::vector<std::future<InferReply>> futures;
    for (const InferRequest &req : requests)
        futures.push_back(server.submit(req));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        InferReply reply = futures[i].get();
        ASSERT_TRUE(reply.ok) << "request " << i;
        EXPECT_EQ(reply.rows, 2);
        EXPECT_TRUE(sameLogits(reply.logits, direct[i])) << "request " << i;
    }
}

} // namespace
} // namespace bertprof
