/**
 * @file
 * One Transformer encoder layer (Fig. 2(b) of the paper): multi-head
 * attention and FC feed-forward sub-layers, each followed by dropout,
 * a residual connection, and layer normalization (post-LN, as BERT).
 */

#ifndef BERTPROF_NN_ENCODER_LAYER_H
#define BERTPROF_NN_ENCODER_LAYER_H

#include "nn/attention.h"
#include "nn/feedforward.h"
#include "nn/layer_norm.h"
#include "nn/module.h"

namespace bertprof {

/** BERT Transformer encoder layer. */
class EncoderLayer : public Module
{
  public:
    EncoderLayer(const std::string &name, std::int64_t d_model,
                 int num_heads, std::int64_t d_ff, NnRuntime *rt,
                 int layer = -1);

    /** Forward over [B*n, d_model] with an additive [n, n] mask. */
    Tensor forward(const Tensor &x, const Tensor &mask, std::int64_t batch,
                   std::int64_t seq);

    /** Backward; accumulates grads, returns dx. */
    Tensor backward(const Tensor &dout);

    void collectParameters(std::vector<Parameter *> &out) override;

    void initialize(Rng &rng, float stddev = 0.02f);

  protected:
    void collectChildren(std::vector<Module *> &out) override;

  private:
    NnRuntime *rt_;
    int layer_;
    MultiHeadAttention attn_;
    LayerNorm ln1_;
    FeedForward ff_;
    LayerNorm ln2_;

    // Saved dropout masks for the two DR+RC+LN blocks (training
    // forwards only; eval forwards retain nothing).
    Tensor attnDropMask_;
    Tensor ffDropMask_;
    bool hasForwardState_ = false;
};

} // namespace bertprof

#endif // BERTPROF_NN_ENCODER_LAYER_H
