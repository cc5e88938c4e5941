/**
 * Tests for the ISA-dispatched element-wise kernels
 * (ops/elementwise_dispatch.h): every variant the host runs is
 * bitwise equal to sse2 for GeLU forward (with and without the bias
 * add), GeLU backward and the softmax row, over +-0, +-inf, NaN,
 * denormals and -1e9-masked entries at every length from 1 to 67 (so
 * every 16-lane tail); the float kernels stay within stated
 * tolerances of the double-precision oracle they replaced
 * (elementwise_oracle.h); and exp gives exact zeros, infinities and
 * NaNs where the masking and padding arguments need them.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "elementwise_oracle.h"
#include "ops/elementwise_dispatch.h"
#include "ops/elementwise_kernel.h"
#include "util/rng.h"

namespace bertprof {
namespace {

using testing::geluGradOracle;
using testing::geluOracle;
using testing::softmaxRowOracle;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kMask = -1e9f; // the additive attention mask

/** Values every kernel must agree on bit for bit: signed zeros and
 * infinities, NaNs of both signs, denormals, the extremes, exp's
 * cutoffs and erf's clamp points. */
const std::vector<float> &
specialValues()
{
    static const std::vector<float> values = {
        0.0f, -0.0f, kInf, -kInf, kNaN, -kNaN,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), 1e-40f, -1e-40f,
        std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(), kMask, 1e9f, 88.7f, 89.0f,
        -87.3f, -87.4f, 5.66f, -5.66f, 1e-3f, -1e-3f, 20.0f, -20.0f};
    return values;
}

/** `n` inputs: every third one the next special value (starting
 * `shift` into the list, so two operand arrays can pair different
 * specials), the rest N(0, 3). */
std::vector<float>
mixedInputs(std::int64_t n, Rng &rng, std::size_t shift = 0)
{
    std::vector<float> x(static_cast<std::size_t>(n));
    const std::vector<float> &sv = specialValues();
    for (std::int64_t i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] =
            i % 3 == 0
                ? sv[(static_cast<std::size_t>(i / 3) + shift) % sv.size()]
                : static_cast<float>(rng.normal(0.0, 3.0));
    return x;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ElementwiseKernels, GeluVariantsBitwiseEqualToSse2AtEveryLength)
{
    Rng rng(17);
    for (std::int64_t n = 1; n <= 67; ++n) {
        const std::vector<float> x = mixedInputs(n, rng);
        const std::vector<float> bias = mixedInputs(n, rng, 1);
        const std::vector<float> dy = mixedInputs(n, rng, 2);
        const auto run = [&](CpuIsa isa) {
            std::vector<float> fwd(x.size()), fwd_bias(x.size()),
                grad(x.size());
            geluElementsFor(isa, x.data(), nullptr, fwd.data(), n);
            geluElementsFor(isa, x.data(), bias.data(), fwd_bias.data(), n);
            geluGradElementsFor(isa, x.data(), dy.data(), grad.data(), n);
            return std::vector<std::vector<float>>{fwd, fwd_bias, grad};
        };
        const auto want = run(CpuIsa::Sse2);
        for (const CpuIsa isa : availableCpuIsas()) {
            const auto got = run(isa);
            EXPECT_TRUE(sameBits(got[0], want[0]))
                << "gelu " << cpuIsaName(isa) << " n=" << n;
            EXPECT_TRUE(sameBits(got[1], want[1]))
                << "bias+gelu " << cpuIsaName(isa) << " n=" << n;
            EXPECT_TRUE(sameBits(got[2], want[2]))
                << "gelu grad " << cpuIsaName(isa) << " n=" << n;
        }
    }
}

TEST(ElementwiseKernels, SoftmaxRowVariantsBitwiseEqualToSse2AtEveryLength)
{
    Rng rng(23);
    for (std::int64_t n = 1; n <= 67; ++n) {
        // Three rows per length: finite scores with a masked tail,
        // every special value mixed in, and a fully masked row.
        std::vector<std::vector<float>> rows(3);
        for (std::int64_t c = 0; c < n; ++c) {
            const float s = static_cast<float>(rng.normal(0.0, 4.0));
            rows[0].push_back(c >= (n + 1) / 2 ? s + kMask : s);
            rows[2].push_back(s + kMask);
        }
        rows[1] = mixedInputs(n, rng);
        for (const std::vector<float> &x : rows) {
            const auto run = [&](CpuIsa isa) {
                std::vector<float> y(x.size());
                softmaxRowFor(isa, x.data(), y.data(), n);
                return y;
            };
            const std::vector<float> want = run(CpuIsa::Sse2);
            for (const CpuIsa isa : availableCpuIsas())
                EXPECT_TRUE(sameBits(run(isa), want))
                    << cpuIsaName(isa) << " n=" << n;
        }
    }
}

TEST(ElementwiseKernels, DispatchedEntryPointsRunTheDispatchedVariant)
{
    Rng rng(5);
    const std::int64_t n = 131;
    const std::vector<float> x = mixedInputs(n, rng);
    const std::vector<float> dy = mixedInputs(n, rng);
    std::vector<float> a(x.size()), b(x.size());
    geluElements(x.data(), dy.data(), a.data(), n);
    geluElementsFor(dispatchedCpuIsa(), x.data(), dy.data(), b.data(), n);
    EXPECT_TRUE(sameBits(a, b));
    geluGradElements(x.data(), dy.data(), a.data(), n);
    geluGradElementsFor(dispatchedCpuIsa(), x.data(), dy.data(), b.data(), n);
    EXPECT_TRUE(sameBits(a, b));
    softmaxRow(dy.data(), a.data(), n);
    softmaxRowFor(dispatchedCpuIsa(), dy.data(), b.data(), n);
    EXPECT_TRUE(sameBits(a, b));
}

// Tolerance against the double-precision oracle: |delta| <=
// 2e-6 * max(1, |x|) for GeLU forward and backward over a dense sweep
// of [-12, 12] (the measured maxima are 2.9e-7 and 1.5e-7).
TEST(ElementwiseKernels, GeluWithinToleranceOfDoubleOracle)
{
    const std::int64_t n = (1 << 20) + 1;
    std::vector<float> x(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] =
            -12.0f + 24.0f * static_cast<float>(i) / static_cast<float>(n - 1);
    const std::vector<float> ones(x.size(), 1.0f);
    std::vector<float> fwd(x.size()), grad(x.size());
    geluElements(x.data(), nullptr, fwd.data(), n);
    geluGradElements(x.data(), ones.data(), grad.data(), n);
    double worst_fwd = 0.0, worst_grad = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double scale = std::max(1.0, std::fabs(double{x[i]}));
        worst_fwd = std::max(
            worst_fwd, std::fabs(double{fwd[i]} - geluOracle(x[i])) / scale);
        worst_grad = std::max(
            worst_grad,
            std::fabs(double{grad[i]} - geluGradOracle(x[i], 1.0f)) / scale);
    }
    EXPECT_LE(worst_fwd, 2e-6);
    EXPECT_LE(worst_grad, 2e-6);
}

// Tolerance against the double-precision oracle: |delta p| <= 1e-6 on
// every probability, for rows of every tail length and of the serving
// buckets' lengths, with and without masked entries.
TEST(ElementwiseKernels, SoftmaxWithinToleranceOfDoubleOracle)
{
    Rng rng(31);
    std::vector<std::int64_t> lengths;
    for (std::int64_t n = 1; n <= 67; ++n)
        lengths.push_back(n);
    for (const std::int64_t n : {128, 384, 512})
        lengths.push_back(n);
    for (const std::int64_t n : lengths) {
        for (const double spread : {1.0, 8.0}) {
            std::vector<float> x(static_cast<std::size_t>(n));
            for (std::int64_t c = 0; c < n; ++c)
                x[static_cast<std::size_t>(c)] =
                    static_cast<float>(rng.normal(0.0, spread)) +
                    (c > 0 && c % 5 == 0 ? kMask : 0.0f);
            std::vector<float> got(x.size()), want(x.size());
            softmaxRow(x.data(), got.data(), n);
            softmaxRowOracle(x.data(), want.data(), n);
            for (std::size_t c = 0; c < x.size(); ++c)
                ASSERT_NEAR(got[c], want[c], 1e-6)
                    << "n=" << n << " c=" << c;
        }
    }
}

TEST(ElementwiseKernels, MaskedEntriesAreExactZerosAndPaddingKeepsBits)
{
    // DESIGN.md section 11.2: a row padded with masked entries must
    // give the unpadded row's probabilities bit for bit, and exact
    // zeros on the padding, at every split of the 16 lanes.
    Rng rng(41);
    for (std::int64_t len = 1; len <= 40; ++len) {
        std::vector<float> row(static_cast<std::size_t>(len));
        for (float &v : row)
            v = static_cast<float>(rng.normal(0.0, 3.0));
        std::vector<float> solo(row.size());
        softmaxRow(row.data(), solo.data(), len);
        for (const std::int64_t pad : {1, 15, 16, 17, 40}) {
            std::vector<float> padded = row;
            for (std::int64_t p = 0; p < pad; ++p)
                padded.push_back(static_cast<float>(rng.normal()) + kMask);
            std::vector<float> out(padded.size());
            softmaxRow(padded.data(), out.data(), len + pad);
            EXPECT_EQ(std::memcmp(out.data(), solo.data(),
                                  solo.size() * sizeof(float)),
                      0)
                << "len=" << len << " pad=" << pad;
            for (std::size_t c = row.size(); c < out.size(); ++c) {
                EXPECT_EQ(out[c], 0.0f);
                EXPECT_FALSE(std::signbit(out[c]));
            }
        }
    }
}

TEST(ElementwiseKernels, ExpSpecialValuesAndAccuracy)
{
    // Exact +0 below the underflow cutoff, +inf above the overflow
    // cutoff, NaN through unchanged.
    for (const float x : {-87.34f, -100.0f, -1e9f, -kInf}) {
        const float e = expLane(x);
        EXPECT_EQ(e, 0.0f) << x;
        EXPECT_FALSE(std::signbit(e)) << x;
    }
    for (const float x : {88.73f, 100.0f, 1e9f, kInf})
        EXPECT_EQ(expLane(x), kInf) << x;
    EXPECT_TRUE(std::isnan(expLane(kNaN)));
    EXPECT_EQ(expLane(0.0f), 1.0f);
    EXPECT_EQ(expLane(-0.0f), 1.0f);

    // Within 3 ulp-equivalents (relative 3 * 2^-23) of the double
    // exp across the whole normal-result range.
    double worst = 0.0;
    for (int i = 0; i <= 400000; ++i) {
        const float x = -87.33f + (88.72f + 87.33f) * static_cast<float>(i) /
                                      400000.0f;
        const double want = std::exp(double{x});
        worst = std::max(worst, std::fabs(expLane(x) - want) / want);
    }
    EXPECT_LE(worst, 3.0 * 0x1p-23);
}

} // namespace
} // namespace bertprof
