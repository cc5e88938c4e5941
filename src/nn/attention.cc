#include "nn/attention.h"

#include <cmath>

#include "ops/dropout.h"
#include "ops/elementwise.h"
#include "ops/fused.h"
#include "ops/gemm.h"
#include "ops/reshape.h"
#include "ops/softmax.h"
#include "util/logging.h"

namespace bertprof {

MultiHeadAttention::MultiHeadAttention(const std::string &name,
                                       std::int64_t d_model, int num_heads,
                                       NnRuntime *rt, int layer)
    : dModel_(d_model), numHeads_(num_heads), rt_(rt), layer_(layer),
      wq_(name + ".wq", d_model, d_model, rt, LayerScope::Transformer,
          SubLayer::AttnLinear, layer),
      wk_(name + ".wk", d_model, d_model, rt, LayerScope::Transformer,
          SubLayer::AttnLinear, layer),
      wv_(name + ".wv", d_model, d_model, rt, LayerScope::Transformer,
          SubLayer::AttnLinear, layer),
      wo_(name + ".wo", d_model, d_model, rt, LayerScope::Transformer,
          SubLayer::AttnLinear, layer)
{
    BP_REQUIRE(d_model % num_heads == 0);
}

void
MultiHeadAttention::initialize(Rng &rng, float stddev)
{
    wq_.initialize(rng, stddev);
    wk_.initialize(rng, stddev);
    wv_.initialize(rng, stddev);
    wo_.initialize(rng, stddev);
}

Tensor
MultiHeadAttention::forward(const Tensor &x, const Tensor &mask,
                            std::int64_t batch, std::int64_t seq)
{
    BP_REQUIRE(x.shape().rank() == 2 && x.shape().dim(1) == dModel_);
    BP_REQUIRE(x.shape().dim(0) == batch * seq);
    const bool per_sequence_mask =
        mask.shape() == Shape({batch, seq, seq});
    BP_REQUIRE(per_sequence_mask || mask.shape() == Shape({seq, seq}));
    const bool training = isTraining();
    batch_ = training ? batch : 0;
    seq_ = training ? seq : 0;
    const std::int64_t dh = dModel_ / numHeads_;
    const std::int64_t bh = batch * numHeads_;

    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor q3d(Shape({bh, seq, dh}));
    Tensor k3d(Shape({bh, seq, dh}));
    Tensor v3d(Shape({bh, seq, dh}));
    if (!training) {
        // Eval schedule: one packed GEMM over [Wq; Wk; Wv] with a
        // fused bias + split-heads epilogue (Fig. 12b's QKV fusion),
        // then score -> softmax -> context in one pass per query row;
        // the [B*h, n, n] scores/probs tensors are never materialized.
        {
            ScopedKernel kern(rt_->profiler, "attn.qkv.fwd", OpKind::Gemm,
                              Phase::Fwd, LayerScope::Transformer,
                              SubLayer::AttnLinear);
            kern.setStats(fusedQkvForward(
                x, wq_.weight().value, wk_.weight().value,
                wv_.weight().value, wq_.bias().value, wk_.bias().value,
                wv_.bias().value, batch, seq, numHeads_, q3d, k3d, v3d));
        }
        Tensor context(Shape({bh, seq, dh}));
        {
            ScopedKernel kern(rt_->profiler, "attn.fused.fwd",
                              OpKind::BatchedGemm, Phase::Fwd,
                              LayerScope::Transformer,
                              SubLayer::AttnBGemm);
            kern.setStats(fusedAttentionEvalForward(
                q3d, k3d, v3d, mask, numHeads_, scale, context));
        }
        Tensor merged(Shape({batch * seq, dModel_}));
        mergeHeads(context, batch, seq, numHeads_, merged);
        // The packed GEMM bypasses the Q/K/V Linears' forward(), so
        // drop what their last training forward saved.
        wq_.releaseSavedInput();
        wk_.releaseSavedInput();
        wv_.releaseSavedInput();
        q3d_ = Tensor();
        k3d_ = Tensor();
        v3d_ = Tensor();
        probs_ = Tensor();
        probsDropped_ = Tensor();
        dropMask_ = Tensor();
        return wo_.forward(merged);
    }

    // Training schedule: the per-op chain of Fig. 5, each op its own
    // kernel. Linear projections (the paper's "Linear" GEMMs).
    Tensor q = wq_.forward(x);
    Tensor k = wk_.forward(x);
    Tensor v = wv_.forward(x);

    // Rearrange into per-head batches for the B*h batched GEMM.
    splitHeads(q, batch, seq, numHeads_, q3d);
    splitHeads(k, batch, seq, numHeads_, k3d);
    splitHeads(v, batch, seq, numHeads_, v3d);

    // Attention scores: B*h GEMMs of n x n x d/h (Table 2b row 2).
    Tensor scores(Shape({bh, seq, seq}));
    {
        ScopedKernel kern(rt_->profiler, "attn.score.fwd",
                          OpKind::BatchedGemm, Phase::Fwd,
                          LayerScope::Transformer, SubLayer::AttnBGemm);
        kern.setStats(batchedGemm(q3d, k3d, scores, false, true));
    }

    // Scale, mask, softmax, dropout — each its own kernel, as in the
    // paper's Scale+Mask+DR+SM group.
    {
        ScopedKernel kern(rt_->profiler, "attn.scale", OpKind::Elementwise,
                          Phase::Fwd, LayerScope::Transformer,
                          SubLayer::AttnScaleMaskDrSm);
        kern.setStats(scaleForward(scores, scale, scores));
    }
    {
        ScopedKernel kern(rt_->profiler, "attn.mask", OpKind::Elementwise,
                          Phase::Fwd, LayerScope::Transformer,
                          SubLayer::AttnScaleMaskDrSm);
        if (per_sequence_mask) {
            kern.setStats(
                batchMaskAddForward(scores, mask, numHeads_, scores));
        } else {
            kern.setStats(maskAddForward(scores, mask, scores));
        }
    }
    Tensor probs(scores.shape());
    {
        ScopedKernel kern(rt_->profiler, "attn.softmax", OpKind::Reduction,
                          Phase::Fwd, LayerScope::Transformer,
                          SubLayer::AttnScaleMaskDrSm);
        kern.setStats(softmaxForward(scores, probs));
    }
    // Dropout draws its mask and keeps it for backward.
    probsDropped_ = Tensor(probs.shape());
    dropMask_ = Tensor(probs.shape());
    {
        ScopedKernel kern(rt_->profiler, "attn.dropout",
                          OpKind::Elementwise, Phase::Fwd,
                          LayerScope::Transformer,
                          SubLayer::AttnScaleMaskDrSm);
        kern.setStats(dropoutForward(probs, rt_->effectiveDropout(),
                                     rt_->rng, probsDropped_, dropMask_));
    }

    // Attention context: B*h GEMMs (Table 2b row 3).
    Tensor context(Shape({bh, seq, dh}));
    {
        ScopedKernel kern(rt_->profiler, "attn.context.fwd",
                          OpKind::BatchedGemm, Phase::Fwd,
                          LayerScope::Transformer, SubLayer::AttnBGemm);
        kern.setStats(batchedGemm(probsDropped_, v3d, context));
    }

    Tensor merged(Shape({batch * seq, dModel_}));
    mergeHeads(context, batch, seq, numHeads_, merged);

    q3d_ = std::move(q3d);
    k3d_ = std::move(k3d);
    v3d_ = std::move(v3d);
    probs_ = std::move(probs);

    // Output projection (the fourth "Linear" GEMM).
    return wo_.forward(merged);
}

Tensor
MultiHeadAttention::backward(const Tensor &dout)
{
    BP_REQUIRE(batch_ > 0);
    const std::int64_t dh = dModel_ / numHeads_;
    const std::int64_t bh = batch_ * numHeads_;

    Tensor dmerged = wo_.backward(dout);
    Tensor dcontext(Shape({bh, seq_, dh}));
    splitHeads(dmerged, batch_, seq_, numHeads_, dcontext);

    // Context B-GEMM grads.
    Tensor dprobs_dropped(Shape({bh, seq_, seq_}));
    Tensor dv3d(Shape({bh, seq_, dh}));
    {
        ScopedKernel kern(rt_->profiler, "attn.context.dgrad_a",
                          OpKind::BatchedGemm, Phase::Bwd,
                          LayerScope::Transformer, SubLayer::AttnBGemm);
        kern.setStats(batchedGemm(dcontext, v3d_, dprobs_dropped, false,
                                  true));
    }
    {
        ScopedKernel kern(rt_->profiler, "attn.context.dgrad_v",
                          OpKind::BatchedGemm, Phase::Bwd,
                          LayerScope::Transformer, SubLayer::AttnBGemm);
        kern.setStats(batchedGemm(probsDropped_, dcontext, dv3d, true,
                                  false));
    }

    // Dropout, softmax, scale backward (mask add is pass-through).
    Tensor dprobs(dprobs_dropped.shape());
    {
        ScopedKernel kern(rt_->profiler, "attn.dropout.bwd",
                          OpKind::Elementwise, Phase::Bwd,
                          LayerScope::Transformer,
                          SubLayer::AttnScaleMaskDrSm);
        kern.setStats(dropoutBackward(dprobs_dropped, dropMask_, dprobs));
    }
    Tensor dscores(dprobs.shape());
    {
        ScopedKernel kern(rt_->profiler, "attn.softmax.bwd",
                          OpKind::Reduction, Phase::Bwd,
                          LayerScope::Transformer,
                          SubLayer::AttnScaleMaskDrSm);
        kern.setStats(softmaxBackward(probs_, dprobs, dscores));
    }
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    {
        ScopedKernel kern(rt_->profiler, "attn.scale.bwd",
                          OpKind::Elementwise, Phase::Bwd,
                          LayerScope::Transformer,
                          SubLayer::AttnScaleMaskDrSm);
        kern.setStats(scaleForward(dscores, scale, dscores));
    }

    // Score B-GEMM grads.
    Tensor dq3d(Shape({bh, seq_, dh}));
    Tensor dk3d(Shape({bh, seq_, dh}));
    {
        ScopedKernel kern(rt_->profiler, "attn.score.dgrad_q",
                          OpKind::BatchedGemm, Phase::Bwd,
                          LayerScope::Transformer, SubLayer::AttnBGemm);
        kern.setStats(batchedGemm(dscores, k3d_, dq3d));
    }
    {
        ScopedKernel kern(rt_->profiler, "attn.score.dgrad_k",
                          OpKind::BatchedGemm, Phase::Bwd,
                          LayerScope::Transformer, SubLayer::AttnBGemm);
        kern.setStats(batchedGemm(dscores, q3d_, dk3d, true, false));
    }

    Tensor dq(Shape({batch_ * seq_, dModel_}));
    Tensor dk(Shape({batch_ * seq_, dModel_}));
    Tensor dv(Shape({batch_ * seq_, dModel_}));
    mergeHeads(dq3d, batch_, seq_, numHeads_, dq);
    mergeHeads(dk3d, batch_, seq_, numHeads_, dk);
    mergeHeads(dv3d, batch_, seq_, numHeads_, dv);

    Tensor dx = wq_.backward(dq);
    accumulate(dx, wk_.backward(dk));
    accumulate(dx, wv_.backward(dv));
    return dx;
}

void
MultiHeadAttention::collectParameters(std::vector<Parameter *> &out)
{
    wq_.collectParameters(out);
    wk_.collectParameters(out);
    wv_.collectParameters(out);
    wo_.collectParameters(out);
}

void
MultiHeadAttention::collectChildren(std::vector<Module *> &out)
{
    out.push_back(&wq_);
    out.push_back(&wk_);
    out.push_back(&wv_);
    out.push_back(&wo_);
}

} // namespace bertprof
