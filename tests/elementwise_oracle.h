/**
 * @file
 * The double-precision GeLU and softmax the substrate ran before its
 * element-wise kernels became ISA-dispatched float code
 * (ops/elementwise_dispatch.h): the test oracle those kernels are held
 * to, within the tolerances tests/test_elementwise_kernels.cc states.
 */

#ifndef BERTPROF_TESTS_ELEMENTWISE_ORACLE_H
#define BERTPROF_TESTS_ELEMENTWISE_ORACLE_H

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace bertprof {
namespace testing {

inline constexpr double kOracleInvSqrt2 = 0.7071067811865475244;
inline constexpr double kOracleInvSqrt2Pi = 0.3989422804014326779;

/** GELU(v) = v * 0.5 * (1 + erf(v / sqrt 2)), in double. */
inline float
geluOracle(float v)
{
    const double x = v;
    return static_cast<float>(
        x * 0.5 * (1.0 + std::erf(x * kOracleInvSqrt2)));
}

/** dy * (Phi(v) + v * phi(v)), in double. */
inline float
geluGradOracle(float v, float dy)
{
    const double x = v;
    const double cdf = 0.5 * (1.0 + std::erf(x * kOracleInvSqrt2));
    const double pdf = kOracleInvSqrt2Pi * std::exp(-0.5 * x * x);
    return static_cast<float>(dy * (cdf + x * pdf));
}

/** Softmax of one row: max, libm exp, a sequential double-accumulated
 * denominator, then a multiply by the float inverse. */
inline void
softmaxRowOracle(const float *x, float *y, std::int64_t n)
{
    float mx = x[0];
    for (std::int64_t c = 1; c < n; ++c)
        mx = std::max(mx, x[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < n; ++c) {
        y[c] = std::exp(x[c] - mx);
        denom += y[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < n; ++c)
        y[c] *= inv;
}

} // namespace testing
} // namespace bertprof

#endif // BERTPROF_TESTS_ELEMENTWISE_ORACLE_H
