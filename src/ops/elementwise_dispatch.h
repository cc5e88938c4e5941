/**
 * @file
 * The ISA-dispatched float element-wise kernels: GeLU forward (with an
 * optional bias add in front), GeLU backward and one softmax row. The
 * loops live in ops/elementwise_kernel.h, compiled once per variant;
 * these entry points run dispatchedCpuIsa()'s (ops/cpu_isa.h).
 *
 * Numerics contract: every variant gives the same bits, for every
 * input including +-0, +-inf, NaN and denormals, because each element
 * sees the same sequence of rounded float operations. Against the
 * exact double-precision functions, GeLU forward and backward are
 * within 2e-6 * max(1, |x|) and a softmax probability within 1e-6
 * (tests/test_elementwise_kernels.cc; DESIGN.md section 8).
 */

#ifndef BERTPROF_OPS_ELEMENTWISE_DISPATCH_H
#define BERTPROF_OPS_ELEMENTWISE_DISPATCH_H

#include <cstdint>

#include "ops/cpu_isa.h"

namespace bertprof {

/** y[i] = GELU(x[i] + bias[i]) for i in [0, n), or GELU(x[i]) when
 * bias is null; GELU(v) = v * Phi(v), the exact (erf) form. y may equal
 * x. */
void geluElements(const float *x, const float *bias, float *y,
                  std::int64_t n);

/** dx[i] = dy[i] * (Phi(x[i]) + x[i] * phi(x[i])) for i in [0, n). */
void geluGradElements(const float *x, const float *dy, float *dx,
                      std::int64_t n);

/**
 * y = softmax(x) over one row of n >= 1 elements; y may equal x. An
 * entry 87.33 or more below the row maximum (a -1e9 mask) gets an
 * exact 0, and appending such entries leaves the other outputs'
 * bits unchanged.
 */
void softmaxRow(const float *x, float *y, std::int64_t n);

/** The same kernels on a named variant, for tests and benches that
 * compare variants. `isa` must satisfy cpuIsaAvailable(). */
void geluElementsFor(CpuIsa isa, const float *x, const float *bias, float *y,
                     std::int64_t n);
void geluGradElementsFor(CpuIsa isa, const float *x, const float *dy,
                         float *dx, std::int64_t n);
void softmaxRowFor(CpuIsa isa, const float *x, float *y, std::int64_t n);

} // namespace bertprof

#endif // BERTPROF_OPS_ELEMENTWISE_DISPATCH_H
