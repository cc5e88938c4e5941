#include "ops/cross_entropy.h"

#include <cmath>
#include <vector>

#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

CrossEntropyResult
softmaxCrossEntropy(const Tensor &logits,
                    const std::vector<std::int64_t> &labels, Tensor &dlogits)
{
    BP_CHECK_RANK(logits, 2);
    BP_CHECK_SAME_SHAPE(logits, dlogits);
    BP_CHECK_NO_ALIAS(dlogits, logits);
    const std::int64_t rows = logits.shape().dim(0);
    const std::int64_t cols = logits.shape().dim(1);
    BP_REQUIRE(static_cast<std::int64_t>(labels.size()) == rows);

    CrossEntropyResult result;
    for (std::int64_t r = 0; r < rows; ++r)
        if (labels[static_cast<std::size_t>(r)] != kIgnoreIndex)
            ++result.count;

    dlogits.fill(0.0f);
    if (result.count == 0)
        return result;

    const double inv_count = 1.0 / static_cast<double>(result.count);
    // Each row's exp(x - max) terms, computed once for the denominator
    // and reused for the gradient.
    static thread_local std::vector<double> exps;
    exps.resize(static_cast<std::size_t>(cols));
    double *e = exps.data();
    double total = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t label = labels[static_cast<std::size_t>(r)];
        if (label == kIgnoreIndex)
            continue;
        BP_REQUIRE(label >= 0 && label < cols);
        const float *x = logits.data() + r * cols;
        float *dx = dlogits.data() + r * cols;

        float mx = x[0];
        for (std::int64_t c = 1; c < cols; ++c)
            mx = std::max(mx, x[c]);
        double denom = 0.0;
        for (std::int64_t c = 0; c < cols; ++c) {
            e[c] = std::exp(static_cast<double>(x[c]) - mx);
            denom += e[c];
        }
        const double log_denom = std::log(denom);
        total += log_denom - (static_cast<double>(x[label]) - mx);
        for (std::int64_t c = 0; c < cols; ++c)
            dx[c] = static_cast<float>(e[c] / denom * inv_count);
        dx[label] -= static_cast<float>(inv_count);
    }
    result.loss = total * inv_count;
    result.stats = elementwiseStats(result.count * cols, 1, 1, 6,
                                    dtypeBytes(logits.dtype()));
    return result;
}

} // namespace bertprof
