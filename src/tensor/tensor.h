/**
 * @file
 * Tensor: a row-major float buffer plus Shape. This is the data type
 * the CPU substrate computes on. Storage precision (FP32 vs FP16) is
 * tracked as metadata; mixed-precision experiments round values
 * through binary16 (see tensor/half.h) so numerics reflect reduced
 * precision while compute stays in float, mirroring how GPU tensor
 * cores accumulate FP16 products in FP32.
 */

#ifndef BERTPROF_TENSOR_TENSOR_H
#define BERTPROF_TENSOR_TENSOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/shape.h"

namespace bertprof {

class Rng;

/** Storage precision of a Tensor (affects bytes and rounding). */
enum class DType {
    F32,
    F16,
};

/** Size in bytes of one element of the given dtype. */
inline std::int64_t
dtypeBytes(DType dtype)
{
    return dtype == DType::F32 ? 4 : 2;
}

/** Short name: "fp32" / "fp16". */
const char *dtypeName(DType dtype);

/** Dense row-major float tensor. */
class Tensor
{
  public:
    /** An empty (rank-0, 1-element) tensor. */
    Tensor();

    /** Allocate a zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape, DType dtype = DType::F32);

    /** Allocate and fill from the given values (size must match). */
    Tensor(Shape shape, std::vector<float> values, DType dtype = DType::F32);

    /** The tensor's shape. */
    const Shape &shape() const { return shape_; }

    /** The tensor's storage precision. */
    DType dtype() const { return dtype_; }

    /** Total element count. */
    std::int64_t numel() const { return shape_.numel(); }

    /** Bytes this tensor occupies at its storage precision. */
    std::int64_t storageBytes() const
    {
        return numel() * dtypeBytes(dtype_);
    }

    /** Mutable flat data pointer. */
    float *data() { return data_.data(); }

    /** Const flat data pointer. */
    const float *data() const { return data_.data(); }

    /**
     * Element access by flat index. Bounds-checked in debug builds
     * (BP_ASSERT tier); the check compiles out under NDEBUG.
     */
    float &at(std::int64_t i);
    float at(std::int64_t i) const;

    /** Element access by (row, col) for rank-2 tensors. */
    float &at(std::int64_t r, std::int64_t c);
    float at(std::int64_t r, std::int64_t c) const;

    /** Call-operator aliases for at(), same debug bounds checks. */
    float &operator()(std::int64_t i) { return at(i); }
    float operator()(std::int64_t i) const { return at(i); }
    float &operator()(std::int64_t r, std::int64_t c) { return at(r, c); }
    float operator()(std::int64_t r, std::int64_t c) const
    {
        return at(r, c);
    }

    /** Fill every element with the given value. */
    void fill(float value);

    /** Fill with N(mean, stddev) samples from the given RNG. */
    void fillNormal(Rng &rng, float mean = 0.0f, float stddev = 1.0f);

    /** Fill with U[lo, hi) samples from the given RNG. */
    void fillUniform(Rng &rng, float lo = 0.0f, float hi = 1.0f);

    /**
     * Round every element through binary16 and mark the tensor F16.
     * Models casting an FP32 tensor to FP16 storage.
     */
    void castToHalfStorage();

    /** Mark the tensor F32 again (values are already exact floats). */
    void castToFloatStorage();

    /**
     * Reinterpret with a new shape of identical numel (metadata only;
     * no data movement since storage is row-major).
     */
    Tensor reshaped(Shape new_shape) const;

    /** Deep copy. */
    Tensor clone() const;

    /** Sum of all elements (in double for accuracy). */
    double sum() const;

    /** L2 norm of all elements (in double for accuracy). */
    double l2Norm() const;

    /** Max |element|. */
    float absMax() const;

    /** Short human-readable description, e.g. "Tensor[4, 8] fp32". */
    std::string toString() const;

  private:
    Shape shape_;
    DType dtype_;
    std::vector<float> data_;
};

/** Max |a-b| over two same-shaped tensors (testing helper). */
float maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace bertprof

#endif // BERTPROF_TENSOR_TENSOR_H
