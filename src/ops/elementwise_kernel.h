/**
 * @file
 * The float element-wise kernels as plain loops over fixed 16-lane
 * blocks: exp, the normal CDF, GeLU forward and backward and one
 * softmax row. Each elementwise_kernel_<isa>.cc instantiates them
 * once, compiled with that ISA's flags, -ffp-contract=off and
 * -fno-trapping-math; ops/elementwise_dispatch.cc picks one table at
 * run time. The last flag only lets the compiler evaluate both arms
 * of a float compare-and-select, which SSE2 and AVX2 need to
 * vectorise these loops at all; it changes no value.
 *
 * Every lane runs the same sequence of IEEE float operations (no
 * contraction, no approximate reciprocal), so a vector lane, a scalar
 * tail element and every ISA produce the same bits. The softmax row
 * keeps that true for its one reduction by fixing which partial sum
 * each element joins: element c always goes to lane c mod 16,
 * whatever the ISA vector width or the row length, and the 16 lanes
 * are merged in one fixed tree.
 *
 * Like ops/gemm_kernel.h, everything here has internal linkage and
 * calls nothing from the standard library: TUs built with different
 * -m flags must not share an inline definition with external linkage
 * (the linker could keep the AVX-512 copy for every caller).
 */

#ifndef BERTPROF_OPS_ELEMENTWISE_KERNEL_H
#define BERTPROF_OPS_ELEMENTWISE_KERNEL_H

#include <cstdint>

namespace bertprof {

/** One ISA's kernels; see ops/elementwise_dispatch.h for each one's
 * contract. */
struct ElementwiseKernels {
    void (*geluForward)(const float *x, const float *bias, float *y,
                        std::int64_t n);
    void (*geluBackward)(const float *x, const float *dy, float *dx,
                         std::int64_t n);
    void (*softmaxRow)(const float *x, float *y, std::int64_t n);
};

/** The per-ISA tables (elementwise_kernel_<isa>.cc). The AVX2 and
 * AVX-512 ones exist only when the build compiles their TU. */
extern const ElementwiseKernels kElementwiseSse2;
extern const ElementwiseKernels kElementwiseAvx2;
extern const ElementwiseKernels kElementwiseAvx512;

namespace {

/** Block width: the AVX-512 vector, two AVX2 or four SSE2 vectors. */
constexpr std::int64_t kLanes = 16;

inline std::uint32_t
bitsOf(float f)
{
    return __builtin_bit_cast(std::uint32_t, f);
}

inline float
floatOf(std::uint32_t u)
{
    return __builtin_bit_cast(float, u);
}

// exp: inputs below kExpMin return +0 and above kExpMax return +inf.
// kExpMin sits just above ln(FLT_MIN) = -87.3365, so every result in
// range is a normal float (no denormal construction); kExpMax just
// below ln(FLT_MAX) = 88.7228.
constexpr float kExpMin = -87.33f;
constexpr float kExpMax = 88.7228f;
constexpr float kLog2e = 1.44269504088896341f;
// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 9 significant bits, so n * kLn2Hi
// is exact for every |n| <= 128 this range reduction produces.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// Adding 1.5 * 2^23 rounds a float of magnitude < 2^22 to the nearest
// integer, which then sits in the sum's low mantissa bits.
constexpr float kRoundToInt = 12582912.0f;

/**
 * e^x to about 2 ulp: Cody-Waite reduction x = n ln2 + r with
 * |r| <= ln2 / 2, the Cephes degree-7 polynomial for e^r, then n
 * added to the exponent field as an integer. Exactly +0 below
 * kExpMin (so a -1e9 mask entry contributes an exact zero), +inf
 * above kExpMax, NaN in -> the same NaN out. No float is ever
 * converted to an integer: n comes from the bits of the rounded sum.
 */
inline float
expLane(float x)
{
    // Clamped copy; NaN fails `x > kExpMin` and becomes kExpMin, so
    // the arithmetic below only ever sees in-range values.
    float xc = x > kExpMin ? x : kExpMin;
    xc = xc < kExpMax ? xc : kExpMax;
    const float t = xc * kLog2e + kRoundToInt;
    const float n = t - kRoundToInt;
    float r = xc - n * kLn2Hi;
    r = r - n * kLn2Lo;
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * (r * r) + r + 1.0f;
    // t's bits minus kRoundToInt's bits is n (two's complement, in
    // unsigned arithmetic); n << 23 lands on the exponent field.
    const std::uint32_t k = bitsOf(t) - bitsOf(kRoundToInt);
    const float e = floatOf(bitsOf(p) + (k << 23));
    const float big = x > kExpMax ? __builtin_huge_valf() : e;
    const float small = x < kExpMin ? 0.0f : big;
    return x == x ? small : x;
}

constexpr float kInvSqrt2 = 0.707106781186547524f;
constexpr float kInvSqrt2Pi = 0.398942280401432678f;

/**
 * erf(x) as x * P(x^2) / Q(x^2) on x clamped to [-4, 4], beyond which
 * erf rounds to +-1 in float: the degree 13/8 rational fit Eigen and
 * TensorFlow use for float erf, within 4.5e-7 of erf everywhere. NaN
 * clamps to 4, so callers that need NaN out must carry x along
 * themselves (GeLU multiplies by x).
 */
inline float
erfLane(float x)
{
    float xc = x < 4.0f ? x : 4.0f;
    xc = xc > -4.0f ? xc : -4.0f;
    const float x2 = xc * xc;
    float p = -2.72614225801306e-10f;
    p = p * x2 + 2.77068142495902e-08f;
    p = p * x2 - 2.10102402082508e-06f;
    p = p * x2 - 5.69250639462346e-05f;
    p = p * x2 - 7.34990630326855e-04f;
    p = p * x2 - 2.95459980854025e-03f;
    p = p * x2 - 1.60960333262415e-02f;
    float q = -1.45660718464996e-05f;
    q = q * x2 - 2.13374055278905e-04f;
    q = q * x2 - 1.68282697438203e-03f;
    q = q * x2 - 7.37332916720468e-03f;
    q = q * x2 - 1.42647390514189e-02f;
    return xc * p / q;
}

/** Phi(x) = (1 + erf(x / sqrt 2)) / 2, the standard normal CDF. */
inline float
normalCdfLane(float x)
{
    return 0.5f + 0.5f * erfLane(x * kInvSqrt2);
}

/**
 * `v`, with any NaN replaced by the one quiet NaN 0x7fc00000. Which
 * operand's NaN an IEEE operation passes on depends on the operand
 * order the compiler picked for that ISA, so without this a NaN result
 * could carry a different sign or payload on each variant.
 */
inline float
canonicalNaN(float v)
{
    return v == v ? v : floatOf(0x7fc00000u);
}

/** GELU(x) = x * Phi(x), the element function of both GeLU forwards. */
inline float
geluLane(float x)
{
    return canonicalNaN(x * normalCdfLane(x));
}

/** dy * dGELU/dx = dy * (Phi(x) + x * phi(x)). */
inline float
geluGradLane(float x, float dy)
{
    const float pdf = kInvSqrt2Pi * expLane(-0.5f * (x * x));
    return canonicalNaN(dy * (normalCdfLane(x) + x * pdf));
}

/** y[i] = GELU(x[i] + bias[i]) (kBias) or GELU(x[i]), i in [0, n). */
template <bool kBias>
inline void
geluForwardLoop(const float *x, const float *bias, float *y, std::int64_t n)
{
    const auto in = [&](std::int64_t i) {
        if constexpr (kBias)
            return x[i] + bias[i];
        else
            return x[i];
    };
    std::int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        for (std::int64_t l = 0; l < kLanes; ++l)
            y[i + l] = geluLane(in(i + l));
    for (; i < n; ++i)
        y[i] = geluLane(in(i));
}

inline void
geluForwardKernel(const float *x, const float *bias, float *y,
                  std::int64_t n)
{
    if (bias)
        geluForwardLoop<true>(x, bias, y, n);
    else
        geluForwardLoop<false>(x, nullptr, y, n);
}

inline void
geluBackwardKernel(const float *x, const float *dy, float *dx,
                   std::int64_t n)
{
    std::int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        for (std::int64_t l = 0; l < kLanes; ++l)
            dx[i + l] = geluGradLane(x[i + l], dy[i + l]);
    for (; i < n; ++i)
        dx[i] = geluGradLane(x[i], dy[i]);
}

/**
 * y = softmax(x) over one row of n >= 1 (y may equal x): max,
 * y = exp(x - max) with the denominator summed in double, element c
 * into lane c mod 16, the lanes merged pairwise in a fixed tree, then
 * y *= float(1 / denominator). An exact-zero term (a masked or padded
 * entry) leaves every lane's bits unchanged, so a row and the same
 * row with masked entries appended give the same bits. A NaN input,
 * +inf, or a row of -inf makes the denominator NaN and every output
 * the canonical NaN.
 */
inline void
softmaxRowKernel(const float *x, float *y, std::int64_t n)
{
    const std::int64_t full = n - n % kLanes;
    float lane_max[kLanes];
    for (std::int64_t l = 0; l < kLanes; ++l)
        lane_max[l] = -__builtin_huge_valf();
    // Kept rolled: unrolled, GCC 12 turns the 16 lane maxima into
    // scalars and runs this pass one element at a time.
    for (std::int64_t i = 0; i < full; i += kLanes)
#pragma GCC unroll 1
        for (std::int64_t l = 0; l < kLanes; ++l)
            lane_max[l] = x[i + l] > lane_max[l] ? x[i + l] : lane_max[l];
    for (std::int64_t i = full; i < n; ++i)
        lane_max[i - full] =
            x[i] > lane_max[i - full] ? x[i] : lane_max[i - full];
    float mx = lane_max[0];
    for (std::int64_t l = 1; l < kLanes; ++l)
        mx = lane_max[l] > mx ? lane_max[l] : mx;

    double sum[kLanes] = {};
    for (std::int64_t i = 0; i < full; i += kLanes)
        for (std::int64_t l = 0; l < kLanes; ++l) {
            const float e = expLane(x[i + l] - mx);
            y[i + l] = e;
            sum[l] += e;
        }
    for (std::int64_t i = full; i < n; ++i) {
        const float e = expLane(x[i] - mx);
        y[i] = e;
        sum[i - full] += e;
    }
    for (std::int64_t w = kLanes / 2; w > 0; w /= 2)
        for (std::int64_t l = 0; l < w; ++l)
            sum[l] += sum[l + w];

    const float inv = static_cast<float>(1.0 / sum[0]);
    for (std::int64_t i = 0; i < full; i += kLanes)
        for (std::int64_t l = 0; l < kLanes; ++l)
            y[i + l] = canonicalNaN(y[i + l] * inv);
    for (std::int64_t i = full; i < n; ++i)
        y[i] = canonicalNaN(y[i] * inv);
}

/** This TU's kernel table. */
constexpr ElementwiseKernels kThisIsaKernels = {
    geluForwardKernel, geluBackwardKernel, softmaxRowKernel};

} // namespace

} // namespace bertprof

#endif // BERTPROF_OPS_ELEMENTWISE_KERNEL_H
