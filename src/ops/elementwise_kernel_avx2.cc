// The AVX2 element-wise kernels, built with -mavx2, -ffp-contract=off
// and -fno-trapping-math (src/ops/CMakeLists.txt). x86-64 only.
#include "ops/elementwise_kernel.h"

namespace bertprof {

const ElementwiseKernels kElementwiseAvx2 = kThisIsaKernels;

} // namespace bertprof
