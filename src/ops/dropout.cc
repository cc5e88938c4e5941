#include "ops/dropout.h"

#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

KernelStats
dropoutForward(const Tensor &in, float p, Rng &rng, Tensor &out,
               Tensor &mask)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_SAME_SHAPE(in, mask);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    BP_CHECK_NO_ALIAS(mask, in);
    BP_CHECK_NO_ALIAS(mask, out);
    BP_REQUIRE(p >= 0.0f && p < 1.0f);
    const std::int64_t n = in.numel();
    const float keep_scale = 1.0f / (1.0f - p);
    // The mask draws consume the sequential RNG stream and must stay
    // serial (and in element order) to keep the stream deterministic;
    // only the apply pass parallelizes.
    for (std::int64_t i = 0; i < n; ++i) {
        const float m = (p == 0.0f || !rng.bernoulli(p)) ? keep_scale : 0.0f;
        mask.data()[i] = m;
    }
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out.data()[i] = in.data()[i] * mask.data()[i];
                });
    return elementwiseStats(n, 1, 2, 2, dtypeBytes(in.dtype()));
}

KernelStats
dropoutBackward(const Tensor &dout, const Tensor &mask, Tensor &din)
{
    BP_CHECK_SAME_SHAPE(dout, mask);
    BP_CHECK_SAME_SHAPE(dout, din);
    BP_CHECK_NO_PARTIAL_ALIAS(din, dout);
    BP_CHECK_NO_ALIAS(din, mask);
    const std::int64_t n = dout.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        din.data()[i] = dout.data()[i] * mask.data()[i];
                });
    return elementwiseStats(n, 2, 1, 1, dtypeBytes(dout.dtype()));
}

} // namespace bertprof
