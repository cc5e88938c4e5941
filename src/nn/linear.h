/**
 * @file
 * Linear (fully-connected) layer: y = x W^T + b. Manifests as the
 * paper's "Linear" / "FC" GEMMs: one FWD GEMM plus two BWD GEMMs
 * (activation gradient and weight gradient) per Table 2b.
 */

#ifndef BERTPROF_NN_LINEAR_H
#define BERTPROF_NN_LINEAR_H

#include "nn/module.h"
#include "trace/taxonomy.h"

namespace bertprof {

/** Fully-connected layer over the last dimension. */
class Linear : public Module
{
  public:
    /**
     * @param name Parameter name prefix, e.g. "enc0.attn.wq".
     * @param in_dim Input feature count.
     * @param out_dim Output feature count.
     * @param rt Shared runtime context.
     * @param scope Profiling scope tag.
     * @param sub Profiling sub-layer tag.
     * @param layer Transformer layer index for tagging (-1 if none).
     */
    Linear(const std::string &name, std::int64_t in_dim,
           std::int64_t out_dim, NnRuntime *rt,
           LayerScope scope = LayerScope::Transformer,
           SubLayer sub = SubLayer::Other, int layer = -1);

    /** Forward: x is [rows, in_dim]; returns [rows, out_dim]. */
    Tensor forward(const Tensor &x);

    /**
     * GEMM-only forward: y = x W^T without the bias epilogue, for
     * callers that fuse the bias into the next kernel (FC1's fused
     * bias+GeLU in eval). Saves the input for backward exactly as forward()
     * does; backward() stays valid because the bias gradient is read
     * off dout, which is the same tensor either way.
     */
    Tensor forwardGemm(const Tensor &x);

    /**
     * Backward: dout is [rows, out_dim]; accumulates weight and bias
     * gradients and returns dx [rows, in_dim]. Requires a training-
     * mode forward() to have been called (eval-mode forwards retain
     * no input).
     */
    Tensor backward(const Tensor &dout);

    /**
     * Drop the input a training forward saved, for an eval forward
     * that reads weight() directly instead of calling forward() (the
     * packed QKV GEMM). backward() must not follow.
     */
    void releaseSavedInput();

    /** True while a training forward's input is held for backward(). */
    bool hasSavedInput() const { return hasSavedInput_; }

    void collectParameters(std::vector<Parameter *> &out) override;

    /** Kaiming-style random initialization. */
    void initialize(Rng &rng, float stddev = 0.02f);

    Parameter &weight() { return weight_; }
    Parameter &bias() { return bias_; }

  private:
    std::int64_t inDim_;
    std::int64_t outDim_;
    NnRuntime *rt_;
    LayerScope scope_;
    SubLayer sub_;
    int layer_;
    Parameter weight_; ///< [out_dim, in_dim]
    Parameter bias_;   ///< [out_dim]
    Tensor savedInput_;
    bool hasSavedInput_ = false;
};

} // namespace bertprof

#endif // BERTPROF_NN_LINEAR_H
