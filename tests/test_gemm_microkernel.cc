/**
 * Tests for the packed, register-blocked GEMM engine
 * (ops/gemm_microkernel.h): packed-vs-reference cross-checks over
 * shapes chosen to stress every edge path (smaller than one register
 * tile, prime extents, degenerate vectors, block-boundary
 * straddlers), all four transpose combinations, the alpha/beta
 * semantics grid, bitwise agreement of every ISA variant the host
 * runs, the variant selection, packing-layout unit tests, aliasing
 * rejection, and the BERTPROF_GEMM_IMPL resolution order.
 */

#include <cstdlib>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ops/gemm.h"
#include "ops/gemm_microkernel.h"
#include "ops/gemm_kernel.h"
#include "runtime/config.h"
#include "util/rng.h"

namespace bertprof {
namespace {

/** Naive double-accumulation oracle (same as test_gemm.cc's). */
void
naiveGemm(const Tensor &a, const Tensor &b, Tensor &c, bool trans_a,
          bool trans_b, float alpha, float beta)
{
    const std::int64_t m = trans_a ? a.shape().dim(1) : a.shape().dim(0);
    const std::int64_t k = trans_a ? a.shape().dim(0) : a.shape().dim(1);
    const std::int64_t n = trans_b ? b.shape().dim(0) : b.shape().dim(1);
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = trans_a ? a.at(p, i) : a.at(i, p);
                const float bv = trans_b ? b.at(j, p) : b.at(p, j);
                acc += static_cast<double>(av) * bv;
            }
            const float prior = beta == 0.0f ? 0.0f : beta * c.at(i, j);
            c.at(i, j) = alpha * static_cast<float>(acc) + prior;
        }
    }
}

class GemmMicrokernelTest : public ::testing::Test
{
  protected:
    void SetUp() override { setGemmImpl(GemmImpl::Packed); }
    void
    TearDown() override
    {
        clearGemmImplOverride();
        setNumThreads(0);
    }
};

using PackedCase = std::tuple<int, int, int>;

class PackedShapeTest : public ::testing::TestWithParam<PackedCase>
{
  protected:
    void SetUp() override { setGemmImpl(GemmImpl::Packed); }
    void TearDown() override { clearGemmImplOverride(); }
};

TEST_P(PackedShapeTest, AllTransAlphaBetaCombosMatchNaive)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 104729 + k));
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({k, m}) : Shape({m, k}));
            Tensor b(trans_b ? Shape({n, k}) : Shape({k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            for (const float alpha : {0.0f, 1.0f, -2.5f}) {
                for (const float beta : {0.0f, 1.0f, -2.5f}) {
                    Tensor c(Shape({m, n})), ref(Shape({m, n}));
                    c.fillNormal(rng);
                    for (std::int64_t i = 0; i < c.numel(); ++i)
                        ref.at(i) = c.at(i);
                    gemm(a, b, c, trans_a, trans_b, alpha, beta);
                    naiveGemm(a, b, ref, trans_a, trans_b, alpha, beta);
                    // Error scales with the k-long dot products.
                    const float tol =
                        1e-4f * static_cast<float>(k > 0 ? k : 1);
                    EXPECT_LT(maxAbsDiff(c, ref), tol)
                        << "m=" << m << " n=" << n << " k=" << k
                        << " tA=" << trans_a << " tB=" << trans_b
                        << " alpha=" << alpha << " beta=" << beta;
                }
            }
        }
    }
}

bool
bitwiseEqual(const Tensor &x, const Tensor &y)
{
    return x.numel() == y.numel() &&
           std::memcmp(x.data(), y.data(),
                       static_cast<std::size_t>(x.numel()) *
                           sizeof(float)) == 0;
}

TEST_P(PackedShapeTest, EveryVariantBitwiseEqualToSse2)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 104729 + n * 7919 + k));
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({k, m}) : Shape({m, k}));
            Tensor b(trans_b ? Shape({n, k}) : Shape({k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            for (const float alpha : {0.0f, 1.0f, -2.5f}) {
                for (const float beta : {0.0f, 1.0f, -2.5f}) {
                    Tensor c0(Shape({m, n}));
                    c0.fillNormal(rng);
                    const auto run = [&](CpuIsa isa) {
                        Tensor c = c0.clone();
                        gemmPackedRowsFor(isa, a.data(), b.data(), c.data(),
                                          m, n, k, trans_a, trans_b, alpha,
                                          beta, 0, m);
                        return c;
                    };
                    const Tensor want = run(CpuIsa::Sse2);
                    for (const CpuIsa isa : availableCpuIsas())
                        EXPECT_TRUE(bitwiseEqual(run(isa), want))
                            << cpuIsaName(isa) << " m=" << m << " n=" << n
                            << " k=" << k << " tA=" << trans_a
                            << " tB=" << trans_b << " alpha=" << alpha
                            << " beta=" << beta;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeAndBlockShapes, PackedShapeTest,
    ::testing::Values(
        // Smaller than one MR x NR register tile.
        PackedCase{1, 1, 1}, PackedCase{2, 3, 4}, PackedCase{3, 5, 2},
        // Degenerate row / column vectors.
        PackedCase{1, 97, 64}, PackedCase{97, 1, 64}, PackedCase{1, 1, 300},
        // Prime extents: every loop level ends in a ragged tile.
        PackedCase{7, 11, 13}, PackedCase{61, 67, 71},
        PackedCase{127, 131, 257},
        // Exactly one cache block, and one element past it.
        PackedCase{96, 64, 256}, PackedCase{97, 65, 257},
        // K spanning multiple KC blocks (beta-chaining across blocks).
        PackedCase{33, 29, 600}));

TEST_F(GemmMicrokernelTest, PackedAndReferenceEnginesAgree)
{
    Rng rng(4242);
    const std::int64_t m = 143, n = 155, k = 301;
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({k, m}) : Shape({m, k}));
            Tensor b(trans_b ? Shape({n, k}) : Shape({k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            Tensor c_packed(Shape({m, n})), c_ref(Shape({m, n}));

            setGemmImpl(GemmImpl::Packed);
            gemm(a, b, c_packed, trans_a, trans_b, 1.5f, 0.0f);
            setGemmImpl(GemmImpl::Reference);
            gemm(a, b, c_ref, trans_a, trans_b, 1.5f, 0.0f);

            EXPECT_LT(maxAbsDiff(c_packed, c_ref), 1e-2f)
                << "tA=" << trans_a << " tB=" << trans_b;
        }
    }
}

TEST_F(GemmMicrokernelTest, BatchedPackedMatchesPerBatchNaive)
{
    Rng rng(31337);
    const std::int64_t batch = 5, m = 37, n = 23, k = 41;
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({batch, k, m}) : Shape({batch, m, k}));
            Tensor b(trans_b ? Shape({batch, n, k}) : Shape({batch, k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            Tensor c(Shape({batch, m, n}));
            batchedGemm(a, b, c, trans_a, trans_b, 1.0f, 0.0f);

            const std::int64_t a_step = a.shape().dim(1) * a.shape().dim(2);
            const std::int64_t b_step = b.shape().dim(1) * b.shape().dim(2);
            for (std::int64_t g = 0; g < batch; ++g) {
                Tensor ag(trans_a ? Shape({k, m}) : Shape({m, k}));
                Tensor bg(trans_b ? Shape({n, k}) : Shape({k, n}));
                for (std::int64_t i = 0; i < a_step; ++i)
                    ag.at(i) = a.at(g * a_step + i);
                for (std::int64_t i = 0; i < b_step; ++i)
                    bg.at(i) = b.at(g * b_step + i);
                Tensor ref(Shape({m, n}));
                naiveGemm(ag, bg, ref, trans_a, trans_b, 1.0f, 0.0f);
                for (std::int64_t i = 0; i < m * n; ++i)
                    EXPECT_NEAR(c.at(g * m * n + i), ref.at(i), 1e-3f)
                        << "g=" << g << " tA=" << trans_a
                        << " tB=" << trans_b;
            }
        }
    }
}

TEST_F(GemmMicrokernelTest, DispatchedVariantBitwiseAcrossThreadCounts)
{
    // Several MC row blocks, so 8 threads really split the rows; each
    // result must also equal the sse2 variant run serially.
    Rng rng(2718);
    const std::int64_t m = 203, n = 157, k = 301;
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({k, m}) : Shape({m, k}));
            Tensor b(trans_b ? Shape({n, k}) : Shape({k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            Tensor want(Shape({m, n}));
            gemmPackedRowsFor(CpuIsa::Sse2, a.data(), b.data(), want.data(),
                              m, n, k, trans_a, trans_b, 1.5f, 0.0f, 0, m);
            for (const int threads : {1, 8}) {
                setNumThreads(threads);
                Tensor c(Shape({m, n}));
                gemm(a, b, c, trans_a, trans_b, 1.5f, 0.0f);
                EXPECT_TRUE(bitwiseEqual(c, want))
                    << cpuIsaName(dispatchedCpuIsa())
                    << " threads=" << threads << " tA=" << trans_a
                    << " tB=" << trans_b;
            }
        }
    }

    const std::int64_t batch = 6, bm = 130, bn = 45, bk = 64;
    Tensor a(Shape({batch, bm, bk})), b(Shape({batch, bn, bk}));
    a.fillNormal(rng);
    b.fillNormal(rng);
    Tensor want(Shape({batch, bm, bn}));
    for (std::int64_t g = 0; g < batch; ++g)
        gemmPackedRowsFor(CpuIsa::Sse2, a.data() + g * bm * bk,
                          b.data() + g * bn * bk, want.data() + g * bm * bn,
                          bm, bn, bk, false, true, 1.0f, 0.0f, 0, bm);
    for (const int threads : {1, 8}) {
        setNumThreads(threads);
        Tensor c(Shape({batch, bm, bn}));
        batchedGemm(a, b, c, false, true);
        EXPECT_TRUE(bitwiseEqual(c, want))
            << cpuIsaName(dispatchedCpuIsa()) << " threads=" << threads;
    }
}

TEST_F(GemmMicrokernelTest, StatsIdenticalToReferenceEngine)
{
    Tensor a(Shape({19, 31})), b(Shape({31, 23})), c(Shape({19, 23}));
    setGemmImpl(GemmImpl::Packed);
    const KernelStats packed = gemm(a, b, c);
    setGemmImpl(GemmImpl::Reference);
    const KernelStats ref = gemm(a, b, c);
    EXPECT_EQ(packed.flops, ref.flops);
    EXPECT_EQ(packed.bytesRead, ref.bytesRead);
    EXPECT_EQ(packed.bytesWritten, ref.bytesWritten);
    EXPECT_EQ(packed.flops, 2 * 19 * 23 * 31);
}

TEST(GemmPack, PackAZeroPadsRaggedPanels)
{
    // 3x2 op(A), row-major (row_stride=2, col_stride=1), mr=4: one
    // panel, columns of op(A) laid out mr at a time, row 3 padded.
    const std::vector<float> a = {1, 2, 3, 4, 5, 6};
    std::vector<float> dst(4 * 2, -1.0f);
    packA(a.data(), 2, 1, 3, 2, 4, dst.data());
    const std::vector<float> want = {1, 3, 5, 0, 2, 4, 6, 0};
    EXPECT_EQ(dst, want);
}

TEST(GemmPack, PackATransposedMatchesLogicalView)
{
    // Storage is 2x3 (k=2 rows, m=3 cols); op(A) = A^T is 3x2 with
    // row_stride=1, col_stride=3. Same logical block as above.
    const std::vector<float> a_t = {1, 3, 5, 2, 4, 6};
    std::vector<float> dst(4 * 2, -1.0f);
    packA(a_t.data(), 1, 3, 3, 2, 4, dst.data());
    const std::vector<float> want = {1, 3, 5, 0, 2, 4, 6, 0};
    EXPECT_EQ(dst, want);
}

TEST(GemmPack, PackBZeroPadsRaggedPanels)
{
    // 2x3 op(B), row-major (row_stride=3, col_stride=1), nr=2: two
    // panels; the second holds only column 2 and pads the rest.
    const std::vector<float> b = {1, 2, 3, 4, 5, 6};
    std::vector<float> dst(2 * 2 * 2, -1.0f);
    packB(b.data(), 3, 1, 2, 3, 2, dst.data());
    const std::vector<float> want = {1, 2, 4, 5, 3, 0, 6, 0};
    EXPECT_EQ(dst, want);
}

TEST(GemmIsaSelect, PicksWidestSupportedVariantElseSse2)
{
    EXPECT_EQ(selectCpuIsa({}), CpuIsa::Sse2);
#if defined(__x86_64__)
    EXPECT_EQ(selectCpuIsa({.avx2 = true, .avx512f = true}),
              CpuIsa::Avx512);
    EXPECT_EQ(selectCpuIsa({.avx2 = true, .avx512f = false}),
              CpuIsa::Avx2);
    // The AVX-512 variant is built with -mavx512f, which implies AVX2.
    EXPECT_EQ(selectCpuIsa({.avx2 = false, .avx512f = true}),
              CpuIsa::Sse2);
#endif

    const std::vector<CpuIsa> available = availableCpuIsas();
    ASSERT_FALSE(available.empty());
    EXPECT_EQ(available.front(), CpuIsa::Sse2);
    EXPECT_EQ(available.back(), dispatchedCpuIsa());
    EXPECT_STREQ(cpuIsaName(CpuIsa::Sse2), "sse2");
    EXPECT_STREQ(cpuIsaName(CpuIsa::Avx2), "avx2");
    EXPECT_STREQ(cpuIsaName(CpuIsa::Avx512), "avx512");
}

TEST(GemmConfig, EnvironmentSelectsEngineAndOverrideWins)
{
    clearGemmImplOverride();
    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "reference", 1), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Reference);
    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "packed", 1), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);

    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "reference", 1), 0);
    setGemmImpl(GemmImpl::Packed);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);
    clearGemmImplOverride();
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Reference);

    // Unknown values fall back to the packed default (with a
    // one-time warning).
    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "turbo", 1), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);

    ASSERT_EQ(::unsetenv("BERTPROF_GEMM_IMPL"), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);
    EXPECT_STREQ(gemmImplName(GemmImpl::Packed), "packed");
    EXPECT_STREQ(gemmImplName(GemmImpl::Reference), "reference");
}

using GemmAliasDeath = GemmMicrokernelTest;

TEST_F(GemmAliasDeath, OutputAliasingAnInputIsRejected)
{
    Tensor a(Shape({8, 8})), b(Shape({8, 8}));
    EXPECT_EXIT(gemm(a, b, a), ::testing::ExitedWithCode(1),
                "requirement failed|contract failed");
    EXPECT_EXIT(gemm(a, b, b), ::testing::ExitedWithCode(1),
                "requirement failed|contract failed");
    Tensor ba(Shape({2, 4, 4})), bb(Shape({2, 4, 4}));
    EXPECT_EXIT(batchedGemm(ba, bb, ba), ::testing::ExitedWithCode(1),
                "requirement failed|contract failed");
}

} // namespace
} // namespace bertprof
