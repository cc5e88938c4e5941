// The baseline element-wise kernels, built with the target's default
// flags (SSE2 on x86-64), -ffp-contract=off and -fno-trapping-math
// (src/ops/CMakeLists.txt). Every build has them.
#include "ops/elementwise_kernel.h"

namespace bertprof {

const ElementwiseKernels kElementwiseSse2 = kThisIsaKernels;

} // namespace bertprof
