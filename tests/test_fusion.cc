/**
 * Fused-kernel parity suite (ISSUE 8 satellite): every fused kernel
 * against its unfused oracle chain at 1 and 8 threads, training
 * forward/backward parity through EncoderLayer, eval logits parity
 * through BertClassifier, and serve end-to-end parity. The parity
 * class per kernel (bitwise versus tolerance) is the contract
 * documented in ops/fused.h.
 */

#include <cmath>
#include <cstring>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/bert_pretrainer.h"
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

constexpr std::int64_t kPadId = 3;

/** Restore the process-wide knobs this suite sweeps. */
struct KnobGuard {
    ~KnobGuard()
    {
        clearFusionModeOverride();
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

        Tensor pre(in.shape());
        Tensor out2(in.shape());
        fusedBiasGeluForwardWithPre(in, bias, pre, out2);
        EXPECT_TRUE(bitwiseEqual(pre, pre_ref)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(out2, out_ref)) << threads << " threads";
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

        Tensor sum(a.shape());
        Tensor out2(a.shape());
        fusedResidualLayerNormForwardWithSum(a, b, gamma, beta, sum, out2,
                                             mean, rstd);
        EXPECT_TRUE(bitwiseEqual(sum, sum_ref)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(out2, out_ref));
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

        Tensor pre(in.shape());
        Tensor out(in.shape());
        fusedBiasGeluForwardWithPre(in, bias, pre, out);
        EXPECT_TRUE(bitwiseEqual(pre, pre_ref)) << threads << " threads";
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

TEST(FusedKernels, QkvBackwardWgradBitwiseDgradClose)
{
    KnobGuard guard;
    const std::int64_t rows = 24, d_model = 32;
    Rng rng(14);
    Tensor x(Shape({rows, d_model}));
    x.fillNormal(rng);
    Tensor d[3] = {Tensor(Shape({rows, d_model})),
                   Tensor(Shape({rows, d_model})),
                   Tensor(Shape({rows, d_model}))};
    Tensor w[3] = {Tensor(Shape({d_model, d_model})),
                   Tensor(Shape({d_model, d_model})),
                   Tensor(Shape({d_model, d_model}))};
    for (int i = 0; i < 3; ++i) {
        d[i].fillNormal(rng);
        w[i].fillNormal(rng);
    }

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        // Oracle: exactly what three Linear::backward calls run.
        Tensor dw_ref[3], db_ref[3];
        Tensor dx_ref(x.shape());
        dx_ref.fill(0.0f);
        for (int i = 0; i < 3; ++i) {
            dw_ref[i] = Tensor(Shape({d_model, d_model}));
            db_ref[i] = Tensor(Shape({d_model}));
            gemm(d[i], x, dw_ref[i], true, false);
            biasBackward(d[i], db_ref[i]);
            Tensor dxi(x.shape());
            gemm(d[i], w[i], dxi, false, false);
            accumulate(dx_ref, dxi);
        }

        Tensor dw[3] = {Tensor(Shape({d_model, d_model})),
                        Tensor(Shape({d_model, d_model})),
                        Tensor(Shape({d_model, d_model}))};
        Tensor db[3] = {Tensor(Shape({d_model})), Tensor(Shape({d_model})),
                        Tensor(Shape({d_model}))};
        Tensor dx(x.shape());
        fusedQkvBackward(d[0], d[1], d[2], x, w[0], w[1], w[2], dw[0],
                         dw[1], dw[2], db[0], db[1], db[2], dx);

        for (int i = 0; i < 3; ++i) {
            EXPECT_TRUE(bitwiseEqual(dw[i], dw_ref[i]))
                << "proj " << i << " at " << threads << " threads";
            EXPECT_TRUE(bitwiseEqual(db[i], db_ref[i]))
                << "proj " << i << " at " << threads << " threads";
        }
        // dx: one k=3H GEMM versus three k=H GEMMs + adds — same
        // value, different association.
        EXPECT_LT(maxAbsDiff(dx, dx_ref), 1e-4) << threads << " threads";
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

/** Two identically-seeded encoder layers, one forward each. */
struct LayerPair {
    NnRuntime rt_a, rt_b;
    EncoderLayer a, b;

    LayerPair()
        : a("enc", 32, 4, 64, &rt_a), b("enc", 32, 4, 64, &rt_b)
    {
        Rng init_a(7), init_b(7);
        a.initialize(init_a);
        b.initialize(init_b);
        rt_a.dropoutP = 0.1f;
        rt_b.dropoutP = 0.1f;
    }
};

TEST(FusionTraining, ForwardBitwiseAndGradsMatchUnfused)
{
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        LayerPair pair;
        Rng data(21);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({16, 16}));

        setFusionMode(FusionMode::Off);
        Tensor y_ref = pair.a.forward(x, mask, 2, 16);
        setFusionMode(FusionMode::On);
        Tensor y = pair.b.forward(x, mask, 2, 16);
        // Same dropout RNG stream, all forward fused kernels bitwise.
        EXPECT_TRUE(bitwiseEqual(y, y_ref)) << threads << " threads";

        Tensor dout(y.shape());
        Rng grad_rng(22);
        dout.fillNormal(grad_rng);
        pair.a.zeroGrad();
        pair.b.zeroGrad();
        setFusionMode(FusionMode::Off);
        Tensor dx_ref = pair.a.backward(dout);
        setFusionMode(FusionMode::On);
        Tensor dx = pair.b.backward(dout);

        // All parameter grads are bitwise (fused QKV wgrad/bias share
        // the oracle's accumulation order); dx crosses the fused QKV
        // dgrad, which reassociates k, so it is tolerance-only.
        std::vector<Parameter *> pa = pair.a.parameters();
        std::vector<Parameter *> pb = pair.b.parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i)
            EXPECT_TRUE(bitwiseEqual(pb[i]->grad, pa[i]->grad))
                << pa[i]->name << " at " << threads << " threads";
        EXPECT_LT(maxAbsDiff(dx, dx_ref), 1e-4) << threads << " threads";
    }
}

TEST(FusionEval, EncoderLayerFusedCloseToUnfused)
{
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        LayerPair pair;
        pair.a.setTraining(false);
        pair.b.setTraining(false);
        Rng data(23);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({16, 16}));

        setFusionMode(FusionMode::Off);
        Tensor y_ref = pair.a.forward(x, mask, 2, 16);
        setFusionMode(FusionMode::On);
        Tensor y = pair.b.forward(x, mask, 2, 16);
        // Fused attention reassociates the score/context dots.
        EXPECT_LT(maxAbsDiff(y, y_ref), 1e-4) << threads << " threads";
    }
}

TEST(FusionEval, EncoderLayerPerSequenceMaskCloseToUnfused)
{
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        LayerPair pair;
        pair.a.setTraining(false);
        pair.b.setTraining(false);
        Rng data(24);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({2, 16, 16}));
        for (std::int64_t i = 0; i < mask.numel(); ++i)
            mask.at(i) = (i % 7 == 0) ? -1e9f : 0.0f;

        setFusionMode(FusionMode::Off);
        Tensor y_ref = pair.a.forward(x, mask, 2, 16);
        setFusionMode(FusionMode::On);
        Tensor y = pair.b.forward(x, mask, 2, 16);
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
    LayerPair pair;
    pair.a.setTraining(false);
    pair.b.setTraining(false);
    const std::int64_t shapes[][2] = {{2, 16}, {1, 5}, {3, 9}, {2, 16}};
    Tensor first;
    for (const auto &bs : shapes) {
        const std::int64_t batch = bs[0], seq = bs[1];
        Rng data(25);
        Tensor x(Shape({batch * seq, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({seq, seq}));

        setFusionMode(FusionMode::Off);
        Tensor y_ref = pair.a.forward(x, mask, batch, seq);
        setFusionMode(FusionMode::On);
        Tensor y = pair.b.forward(x, mask, batch, seq);
        EXPECT_LT(maxAbsDiff(y, y_ref), 1e-4)
            << "batch " << batch << " seq " << seq;
        if (first.numel() == 0) {
            first = y;
        } else if (y.shape() == first.shape()) {
            EXPECT_TRUE(bitwiseEqual(y, first));
        }
    }
}

/** Eval logits of a tiny classifier over a fixed batch. */
Tensor
classifierLogits(BertClassifier &clf, const BertConfig &config)
{
    const std::int64_t batch = 2, seq = 16;
    std::vector<std::int64_t> tokens, segments;
    Rng rng(31);
    for (std::int64_t i = 0; i < batch * seq; ++i) {
        tokens.push_back(rng.uniformInt(0, config.vocabSize - 1));
        segments.push_back(i % 2);
    }
    const std::vector<std::int64_t> lengths = {seq, seq - 3};
    return clf.forwardLogitsEval(tokens, segments, batch, seq, lengths);
}

TEST(FusionEval, ClassifierLogitsCloseAndThreadInvariant)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(32);
    clf.initialize(init);
    clf.setTraining(false);

    setNumThreads(1);
    setFusionMode(FusionMode::Off);
    Tensor ref = classifierLogits(clf, config);
    setFusionMode(FusionMode::On);
    Tensor fused1 = classifierLogits(clf, config);
    EXPECT_LT(maxAbsDiff(fused1, ref), 1e-4);

    // Fused eval is bitwise thread-count invariant (deterministic
    // parallelFor chunking), like every other kernel in the repo.
    setNumThreads(8);
    Tensor fused8 = classifierLogits(clf, config);
    EXPECT_TRUE(bitwiseEqual(fused8, fused1));
    setFusionMode(FusionMode::Off);
    Tensor ref8 = classifierLogits(clf, config);
    EXPECT_TRUE(bitwiseEqual(ref8, ref));
}

/** Eval MLM logits of a tiny pretrainer over a padded batch. */
Tensor
mlmLogits(BertPretrainer &model, const BertConfig &config)
{
    const std::int64_t batch = 2, seq = 16;
    std::vector<std::int64_t> tokens, segments;
    Rng rng(33);
    for (std::int64_t i = 0; i < batch * seq; ++i) {
        tokens.push_back(rng.uniformInt(0, config.vocabSize - 1));
        segments.push_back(i % 2);
    }
    const std::vector<std::int64_t> lengths = {seq, seq - 5};
    const std::vector<std::int64_t> positions = {0, 7, seq + 2, seq + 9};
    return model.mlmLogitsEval(tokens, segments, batch, seq, lengths,
                               positions);
}

TEST(FusionEval, MlmLogitsCloseAndThreadInvariant)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertPretrainer model(config, &rt);
    Rng init(34);
    model.initialize(init);
    model.setTraining(false);

    setNumThreads(1);
    setFusionMode(FusionMode::Off);
    Tensor ref = mlmLogits(model, config);
    setFusionMode(FusionMode::On);
    Tensor fused1 = mlmLogits(model, config);
    EXPECT_LT(maxAbsDiff(fused1, ref), 1e-4);

    setNumThreads(8);
    Tensor fused8 = mlmLogits(model, config);
    EXPECT_TRUE(bitwiseEqual(fused8, fused1));
}

TEST(FusionTraining, PretrainerLossAndGradsCloseToUnfused)
{
    // The whole model, embeddings to both heads, in training mode:
    // the fused forward is bitwise, so the losses match exactly; the
    // grads cross the fused QKV dgrad and match to tolerance.
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

    a.zeroGrad();
    b.zeroGrad();
    setFusionMode(FusionMode::Off);
    const PretrainStepResult ref = a.forwardBackward(batch);
    setFusionMode(FusionMode::On);
    const PretrainStepResult fused = b.forwardBackward(batch);
    EXPECT_EQ(fused.mlmLoss, ref.mlmLoss);
    EXPECT_EQ(fused.nspLoss, ref.nspLoss);

    std::vector<Parameter *> pa, pb;
    a.collectParameters(pa);
    b.collectParameters(pb);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_LT(maxAbsDiff(pb[i]->grad, pa[i]->grad), 1e-4)
            << pa[i]->name;
}

TEST(FusionServe, EndToEndLogitsParity)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(41);
    clf.initialize(init);
    clf.setTraining(false);
    ClassifierEngine engine(clf, kPadId);

    const BucketSpec buckets({8, 16, 32});
    ServeOptions options;
    options.maxBatch = 4;
    options.maxWaitUs = 200;

    auto serve_once = [&](FusionMode mode) {
        setFusionMode(mode);
        Rng body(42);
        std::vector<std::vector<float>> logits;
        InferenceServer server(engine, buckets, options);
        std::vector<std::future<InferReply>> futures;
        for (std::uint64_t id = 0; id < 10; ++id) {
            InferRequest req = syntheticRequest(
                body, id, 4 + static_cast<std::int64_t>(id),
                config.vocabSize);
            futures.push_back(server.submit(req));
        }
        for (auto &f : futures) {
            InferReply reply = f.get();
            EXPECT_TRUE(reply.ok);
            logits.push_back(reply.logits);
        }
        return logits;
    };

    const auto off = serve_once(FusionMode::Off);
    const auto on = serve_once(FusionMode::On);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        ASSERT_EQ(off[i].size(), on[i].size());
        for (std::size_t j = 0; j < off[i].size(); ++j)
            EXPECT_NEAR(on[i][j], off[i][j], 1e-4)
                << "request " << i << " logit " << j;
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

    ServeOptions options;
    options.maxBatch = 4;
    options.maxWaitUs = 200;
    options.defaultDeadlineUs = 60000000;

    auto serve_once = [&](FusionMode mode) {
        setFusionMode(mode);
        Rng body(44);
        std::vector<std::vector<float>> logits;
        InferenceServer server(engine, BucketSpec({8, 16, 32}), options);
        std::vector<std::future<InferReply>> futures;
        for (std::uint64_t id = 0; id < 6; ++id) {
            const std::int64_t len = 4 + 2 * static_cast<std::int64_t>(id);
            InferRequest req =
                syntheticRequest(body, id, len, config.vocabSize);
            req.mlmPositions = {0, len - 1};
            futures.push_back(server.submit(std::move(req)));
        }
        for (auto &f : futures) {
            InferReply reply = f.get();
            EXPECT_TRUE(reply.ok);
            EXPECT_EQ(reply.rows, 2);
            logits.push_back(reply.logits);
        }
        return logits;
    };

    const auto off = serve_once(FusionMode::Off);
    const auto on = serve_once(FusionMode::On);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        ASSERT_EQ(off[i].size(), on[i].size());
        for (std::size_t j = 0; j < off[i].size(); ++j)
            EXPECT_NEAR(on[i][j], off[i][j], 1e-4)
                << "request " << i << " logit " << j;
    }
}

} // namespace
} // namespace bertprof
