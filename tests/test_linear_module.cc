/** Tests for the Linear module: math and full gradient checks. */

#include <gtest/gtest.h>

#include <cstring>

#include "nn/linear.h"
#include "ops/elementwise.h"
#include "test_helpers.h"

namespace bertprof {
namespace {

using testing::expectGradientsMatch;

struct LinearFixture : public ::testing::Test {
    NnRuntime rt;
    Linear layer{"fc", 4, 3, &rt};
    Tensor x{Shape({5, 4})};

    void
    SetUp() override
    {
        Rng rng(1);
        layer.initialize(rng, 0.5f);
        layer.bias().value.fillNormal(rng, 0.0f, 0.5f);
        x.fillNormal(rng);
    }

    double
    weightedLoss()
    {
        Tensor y = layer.forward(x);
        double total = 0.0;
        for (std::int64_t i = 0; i < y.numel(); ++i)
            total += static_cast<double>(y.at(i)) * (0.2 * (i % 5) - 0.4);
        return total;
    }

    Tensor
    lossGradient(const Tensor &y)
    {
        Tensor dout(y.shape());
        for (std::int64_t i = 0; i < dout.numel(); ++i)
            dout.at(i) = static_cast<float>(0.2 * (i % 5) - 0.4);
        return dout;
    }
};

TEST_F(LinearFixture, ForwardMatchesManualComputation)
{
    Tensor y = layer.forward(x);
    ASSERT_EQ(y.shape(), Shape({5, 3}));
    // y[r, o] = sum_i x[r, i] * W[o, i] + b[o]
    for (std::int64_t r = 0; r < 5; ++r) {
        for (std::int64_t o = 0; o < 3; ++o) {
            double acc = layer.bias().value.at(o);
            for (std::int64_t i = 0; i < 4; ++i)
                acc += static_cast<double>(x.at(r, i)) *
                       layer.weight().value.at(o, i);
            EXPECT_NEAR(y.at(r, o), acc, 1e-5);
        }
    }
}

TEST_F(LinearFixture, InputGradientMatchesFiniteDifference)
{
    Tensor y = layer.forward(x);
    layer.zeroGrad();
    Tensor dx = layer.backward(lossGradient(y));
    auto loss = [&]() { return weightedLoss(); };
    expectGradientsMatch(x, loss, dx, 1e-3, 1e-2);
}

TEST_F(LinearFixture, WeightGradientMatchesFiniteDifference)
{
    Tensor y = layer.forward(x);
    layer.zeroGrad();
    layer.backward(lossGradient(y));
    auto loss = [&]() { return weightedLoss(); };
    expectGradientsMatch(layer.weight().value, loss, layer.weight().grad,
                         1e-3, 1e-2);
    expectGradientsMatch(layer.bias().value, loss, layer.bias().grad, 1e-3,
                         1e-2);
}

TEST_F(LinearFixture, GradientsAccumulateAcrossBackwardCalls)
{
    Tensor y = layer.forward(x);
    layer.zeroGrad();
    layer.backward(lossGradient(y));
    const Tensor once = layer.weight().grad.clone();
    layer.forward(x);
    layer.backward(lossGradient(y));
    for (std::int64_t i = 0; i < once.numel(); ++i)
        EXPECT_NEAR(layer.weight().grad.at(i), 2.0f * once.at(i), 1e-4f);
}

TEST_F(LinearFixture, ForwardIsForwardGemmThenBiasAndBothFeedBackward)
{
    // forward() is forwardGemm() plus the bias epilogue, bitwise; both
    // save the input, so backward() yields the same gradients after
    // either.
    auto same = [](const Tensor &a, const Tensor &b) {
        return a.shape() == b.shape() &&
               std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) *
                               sizeof(float)) == 0;
    };
    const Tensor y = layer.forward(x);
    const Tensor dout = lossGradient(y);
    layer.zeroGrad();
    const Tensor dx = layer.backward(dout);
    const Tensor dw = layer.weight().grad.clone();
    const Tensor db = layer.bias().grad.clone();

    Tensor y_gemm = layer.forwardGemm(x);
    biasForward(y_gemm, layer.bias().value, y_gemm);
    EXPECT_TRUE(same(y_gemm, y));
    layer.zeroGrad();
    EXPECT_TRUE(same(layer.backward(dout), dx));
    EXPECT_TRUE(same(layer.weight().grad, dw));
    EXPECT_TRUE(same(layer.bias().grad, db));
}

TEST_F(LinearFixture, ParametersExposedWithNames)
{
    auto params = layer.parameters();
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[0]->name, "fc.w");
    EXPECT_EQ(params[1]->name, "fc.b");
    EXPECT_FALSE(params[0]->noDecay);
    EXPECT_TRUE(params[1]->noDecay);
    EXPECT_EQ(layer.parameterCount(), 4 * 3 + 3);
}

TEST_F(LinearFixture, ProfilerRecordsKernels)
{
    Profiler profiler;
    rt.profiler = &profiler;
    layer.forward(x);
    // GEMM + bias.
    EXPECT_EQ(profiler.records().size(), 2u);
    EXPECT_EQ(profiler.records()[0].kind, OpKind::Gemm);
    rt.profiler = nullptr;
}

} // namespace
} // namespace bertprof
