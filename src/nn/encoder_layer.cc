#include "nn/encoder_layer.h"

#include "ops/dropout.h"
#include "ops/elementwise.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

EncoderLayer::EncoderLayer(const std::string &name, std::int64_t d_model,
                           int num_heads, std::int64_t d_ff, NnRuntime *rt,
                           int layer)
    : rt_(rt), layer_(layer),
      attn_(name + ".attn", d_model, num_heads, rt, layer),
      ln1_(name + ".ln1", d_model, rt, LayerScope::Transformer,
           SubLayer::DrRcLn, layer),
      ff_(name + ".ff", d_model, d_ff, rt, layer),
      ln2_(name + ".ln2", d_model, rt, LayerScope::Transformer,
           SubLayer::DrRcLn, layer)
{
}

void
EncoderLayer::initialize(Rng &rng, float stddev)
{
    attn_.initialize(rng, stddev);
    ff_.initialize(rng, stddev);
}

Tensor
EncoderLayer::forward(const Tensor &x, const Tensor &mask,
                      std::int64_t batch, std::int64_t seq)
{
    BP_REQUIRE(batch > 0 && seq > 0);
    BP_CHECK_RANK(x, 2);
    BP_REQUIRE(x.shape().dim(0) == batch * seq);
    const bool training = isTraining();
    hasForwardState_ = training;

    Tensor attn_out = attn_.forward(x, mask, batch, seq);
    if (!training) {
        // Eval schedule: the block dropouts are exact identities (no
        // RNG draw, no mask alloc), so each residual+LN kernel reads
        // the sub-layer output directly and the sum never touches
        // memory.
        attnDropMask_ = Tensor();
        ffDropMask_ = Tensor();
        Tensor normed = ln1_.forwardFusedResidual(attn_out, x);
        Tensor ff_out = ff_.forward(normed);
        return ln2_.forwardFusedResidual(ff_out, normed);
    }

    // Training schedule. Attention sub-layer + DR + RC + LN.
    Tensor dropped(attn_out.shape());
    attnDropMask_ = Tensor(attn_out.shape());
    {
        ScopedKernel k(rt_->profiler, "attn.block.dropout",
                       OpKind::Elementwise, Phase::Fwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(dropoutForward(attn_out, rt_->effectiveDropout(),
                                  rt_->rng, dropped, attnDropMask_));
    }
    Tensor residual(attn_out.shape());
    {
        ScopedKernel k(rt_->profiler, "attn.block.residual",
                       OpKind::Elementwise, Phase::Fwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(addForward(dropped, x, residual));
    }
    Tensor normed = ln1_.forward(residual);

    // Feed-forward sub-layer + DR + RC + LN.
    Tensor ff_out = ff_.forward(normed);
    Tensor ff_dropped(ff_out.shape());
    ffDropMask_ = Tensor(ff_out.shape());
    {
        ScopedKernel k(rt_->profiler, "ff.block.dropout",
                       OpKind::Elementwise, Phase::Fwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(dropoutForward(ff_out, rt_->effectiveDropout(), rt_->rng,
                                  ff_dropped, ffDropMask_));
    }
    Tensor ff_residual(ff_out.shape());
    {
        ScopedKernel k(rt_->profiler, "ff.block.residual",
                       OpKind::Elementwise, Phase::Fwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(addForward(ff_dropped, normed, ff_residual));
    }
    return ln2_.forward(ff_residual);
}

Tensor
EncoderLayer::backward(const Tensor &dout)
{
    BP_REQUIRE(hasForwardState_);
    BP_CHECK_RANK(dout, 2);
    BP_CHECK_SAME_SHAPE(dout, attnDropMask_);
    // LN2 -> residual split -> dropout -> FF.
    Tensor dff_residual = ln2_.backward(dout);
    Tensor dff_dropped(dff_residual.shape());
    {
        ScopedKernel k(rt_->profiler, "ff.block.dropout.bwd",
                       OpKind::Elementwise, Phase::Bwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(
            dropoutBackward(dff_residual, ffDropMask_, dff_dropped));
    }
    Tensor dnormed = ff_.backward(dff_dropped);
    {
        // Residual branch: the LN input gradient also flows directly.
        ScopedKernel k(rt_->profiler, "ff.block.residual.bwd",
                       OpKind::Elementwise, Phase::Bwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(accumulate(dnormed, dff_residual));
    }

    // LN1 -> residual split -> dropout -> attention.
    Tensor dresidual = ln1_.backward(dnormed);
    Tensor ddropped(dresidual.shape());
    {
        ScopedKernel k(rt_->profiler, "attn.block.dropout.bwd",
                       OpKind::Elementwise, Phase::Bwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(dropoutBackward(dresidual, attnDropMask_, ddropped));
    }
    Tensor dx = attn_.backward(ddropped);
    {
        ScopedKernel k(rt_->profiler, "attn.block.residual.bwd",
                       OpKind::Elementwise, Phase::Bwd,
                       LayerScope::Transformer, SubLayer::DrRcLn);
        k.setStats(accumulate(dx, dresidual));
    }
    return dx;
}

void
EncoderLayer::collectParameters(std::vector<Parameter *> &out)
{
    attn_.collectParameters(out);
    ln1_.collectParameters(out);
    ff_.collectParameters(out);
    ln2_.collectParameters(out);
}

void
EncoderLayer::collectChildren(std::vector<Module *> &out)
{
    out.push_back(&attn_);
    out.push_back(&ln1_);
    out.push_back(&ff_);
    out.push_back(&ln2_);
}

} // namespace bertprof
