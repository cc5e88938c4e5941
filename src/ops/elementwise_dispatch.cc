#include "ops/elementwise_dispatch.h"

#include "ops/elementwise_kernel.h"
#include "util/logging.h"

namespace bertprof {

namespace {

/** The variant's table; null when this build did not compile its TU
 * (BERTPROF_HAS_* come from src/ops/CMakeLists.txt). */
const ElementwiseKernels *
kernelsFor(CpuIsa isa)
{
    switch (isa) {
    case CpuIsa::Sse2:
        return &kElementwiseSse2;
#ifdef BERTPROF_HAS_AVX2
    case CpuIsa::Avx2:
        return &kElementwiseAvx2;
#endif
#ifdef BERTPROF_HAS_AVX512
    case CpuIsa::Avx512:
        return &kElementwiseAvx512;
#endif
    default:
        return nullptr;
    }
}

/** The dispatched table, resolved once per process. */
const ElementwiseKernels &
dispatched()
{
    static const ElementwiseKernels *const kernels =
        kernelsFor(dispatchedCpuIsa());
    return *kernels;
}

const ElementwiseKernels &
checkedKernelsFor(CpuIsa isa)
{
    BP_REQUIRE(cpuIsaAvailable(isa));
    return *kernelsFor(isa);
}

} // namespace

void
geluElements(const float *x, const float *bias, float *y, std::int64_t n)
{
    dispatched().geluForward(x, bias, y, n);
}

void
geluGradElements(const float *x, const float *dy, float *dx, std::int64_t n)
{
    dispatched().geluBackward(x, dy, dx, n);
}

void
softmaxRow(const float *x, float *y, std::int64_t n)
{
    dispatched().softmaxRow(x, y, n);
}

void
geluElementsFor(CpuIsa isa, const float *x, const float *bias, float *y,
                std::int64_t n)
{
    checkedKernelsFor(isa).geluForward(x, bias, y, n);
}

void
geluGradElementsFor(CpuIsa isa, const float *x, const float *dy, float *dx,
                    std::int64_t n)
{
    checkedKernelsFor(isa).geluBackward(x, dy, dx, n);
}

void
softmaxRowFor(CpuIsa isa, const float *x, float *y, std::int64_t n)
{
    checkedKernelsFor(isa).softmaxRow(x, y, n);
}

} // namespace bertprof
