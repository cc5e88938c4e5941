/**
 * @file
 * Multi-head self-attention exactly as Fig. 5 of the paper: Q/K/V
 * linear projections (GEMMs), per-head attention score and context
 * batched-GEMMs over B*h groups, the scale/mask/softmax/dropout
 * element-wise chain, and the output projection. Training runs that
 * per-op chain; eval runs the fused packed-QKV and one-pass attention
 * kernels of ops/fused.h instead (DESIGN.md §13).
 */

#ifndef BERTPROF_NN_ATTENTION_H
#define BERTPROF_NN_ATTENTION_H

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace bertprof {

/** Multi-head self-attention over a [B*n, d_model] input. */
class MultiHeadAttention : public Module
{
  public:
    /**
     * @param name Parameter name prefix.
     * @param d_model Hidden dimension.
     * @param num_heads Head count h (d_model must divide evenly).
     * @param rt Shared runtime context.
     * @param layer Transformer layer index for profiling tags.
     */
    MultiHeadAttention(const std::string &name, std::int64_t d_model,
                       int num_heads, NnRuntime *rt, int layer = -1);

    /**
     * Forward. @param x [B*n, d_model]; @param mask additive
     * attention mask [n, n] (0 = attend, -inf = blocked), broadcast
     * over batch and heads; @param batch B; @param seq n.
     */
    Tensor forward(const Tensor &x, const Tensor &mask, std::int64_t batch,
                   std::int64_t seq);

    /** Backward; accumulates all projection grads, returns dx. */
    Tensor backward(const Tensor &dout);

    void collectParameters(std::vector<Parameter *> &out) override;

    /** Initialize all projection weights. */
    void initialize(Rng &rng, float stddev = 0.02f);

  protected:
    void collectChildren(std::vector<Module *> &out) override;

  private:
    std::int64_t dModel_;
    int numHeads_;
    NnRuntime *rt_;
    int layer_;
    Linear wq_;
    Linear wk_;
    Linear wv_;
    Linear wo_;

    // Saved forward state.
    std::int64_t batch_ = 0;
    std::int64_t seq_ = 0;
    Tensor q3d_, k3d_, v3d_;   ///< [B*h, n, d/h]
    Tensor probs_;             ///< post-softmax scores [B*h, n, n]
    Tensor dropMask_;          ///< dropout mask on probs
    Tensor probsDropped_;      ///< probs after dropout
};

} // namespace bertprof

#endif // BERTPROF_NN_ATTENTION_H
