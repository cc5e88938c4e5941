/**
 * @file
 * The FC feed-forward sub-layer of a transformer encoder: FC-1
 * (d_model -> d_ff), GeLU, FC-2 (d_ff -> d_model). These are the
 * paper's two big FC GEMMs plus the memory-bound GeLU kernels.
 */

#ifndef BERTPROF_NN_FEEDFORWARD_H
#define BERTPROF_NN_FEEDFORWARD_H

#include "nn/linear.h"
#include "nn/module.h"

namespace bertprof {

/** Position-wise feed-forward network. */
class FeedForward : public Module
{
  public:
    FeedForward(const std::string &name, std::int64_t d_model,
                std::int64_t d_ff, NnRuntime *rt, int layer = -1);

    /** Forward over [rows, d_model]. */
    Tensor forward(const Tensor &x);

    /** Backward; accumulates grads, returns dx. */
    Tensor backward(const Tensor &dout);

    void collectParameters(std::vector<Parameter *> &out) override;

    void initialize(Rng &rng, float stddev = 0.02f);

  protected:
    void collectChildren(std::vector<Module *> &out) override;

  private:
    NnRuntime *rt_;
    int layer_;
    Linear fc1_;
    Linear fc2_;
    Tensor savedPreGelu_;
    bool hasSaved_ = false;
};

} // namespace bertprof

#endif // BERTPROF_NN_FEEDFORWARD_H
