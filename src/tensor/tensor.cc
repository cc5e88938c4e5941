#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "tensor/half.h"
#include "util/logging.h"
#include "util/rng.h"

namespace bertprof {

const char *
dtypeName(DType dtype)
{
    return dtype == DType::F32 ? "fp32" : "fp16";
}

Tensor::Tensor() : shape_(), dtype_(DType::F32), data_(1, 0.0f) {}

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype),
      data_(static_cast<std::size_t>(shape_.numel()), 0.0f)
{
}

Tensor::Tensor(Shape shape, std::vector<float> values, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype), data_(std::move(values))
{
    BP_REQUIRE(static_cast<std::int64_t>(data_.size()) == shape_.numel());
}

float &
Tensor::at(std::int64_t i)
{
    BP_ASSERT(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
}

float
Tensor::at(std::int64_t i) const
{
    BP_ASSERT(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
}

float &
Tensor::at(std::int64_t r, std::int64_t c)
{
    BP_ASSERT(shape_.rank() == 2);
    BP_ASSERT(r >= 0 && r < shape_.dim(0) && c >= 0 && c < shape_.dim(1));
    return data_[static_cast<std::size_t>(r * shape_.dim(1) + c)];
}

float
Tensor::at(std::int64_t r, std::int64_t c) const
{
    BP_ASSERT(shape_.rank() == 2);
    BP_ASSERT(r >= 0 && r < shape_.dim(0) && c >= 0 && c < shape_.dim(1));
    return data_[static_cast<std::size_t>(r * shape_.dim(1) + c)];
}

void
Tensor::fill(float value)
{
    for (auto &v : data_)
        v = value;
}

void
Tensor::fillNormal(Rng &rng, float mean, float stddev)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.normal(mean, stddev));
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.uniform(lo, hi));
}

void
Tensor::castToHalfStorage()
{
    for (auto &v : data_)
        v = roundToHalf(v);
    dtype_ = DType::F16;
}

void
Tensor::castToFloatStorage()
{
    dtype_ = DType::F32;
}

Tensor
Tensor::reshaped(Shape new_shape) const
{
    BP_REQUIRE(new_shape.numel() == numel());
    Tensor out(std::move(new_shape), data_, dtype_);
    return out;
}

Tensor
Tensor::clone() const
{
    return Tensor(shape_, data_, dtype_);
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (float v : data_)
        s += v;
    return s;
}

double
Tensor::l2Norm() const
{
    double s = 0.0;
    for (float v : data_)
        s += static_cast<double>(v) * v;
    return std::sqrt(s);
}

float
Tensor::absMax() const
{
    float m = 0.0f;
    for (float v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

std::string
Tensor::toString() const
{
    std::ostringstream os;
    os << "Tensor" << shape_.toString() << ' ' << dtypeName(dtype_);
    return os.str();
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    BP_REQUIRE(a.shape() == b.shape());
    float m = 0.0f;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        m = std::max(m, std::fabs(a.at(i) - b.at(i)));
    return m;
}

} // namespace bertprof
