/**
 * @file
 * Inverted dropout with an explicit mask tensor, matching the paper's
 * DR kernel (an element-wise multiply of the activation with a mask).
 */

#ifndef BERTPROF_OPS_DROPOUT_H
#define BERTPROF_OPS_DROPOUT_H

#include "ops/kernel_stats.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bertprof {

/**
 * Forward: draws a Bernoulli(1-p) mask scaled by 1/(1-p) into `mask`
 * and writes out = in * mask. With p == 0 the mask is all ones
 * (useful for deterministic tests).
 */
KernelStats dropoutForward(const Tensor &in, float p, Rng &rng, Tensor &out,
                           Tensor &mask);

/** Backward: din = dout * mask (the saved forward mask). */
KernelStats dropoutBackward(const Tensor &dout, const Tensor &mask,
                            Tensor &din);

} // namespace bertprof

#endif // BERTPROF_OPS_DROPOUT_H
