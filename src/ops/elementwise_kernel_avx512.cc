// The AVX-512F element-wise kernels, built with -mavx512f,
// -ffp-contract=off and -fno-trapping-math (src/ops/CMakeLists.txt).
// x86-64 only.
#include "ops/elementwise_kernel.h"

namespace bertprof {

const ElementwiseKernels kElementwiseAvx512 = kThisIsaKernels;

} // namespace bertprof
