/**
 * @file
 * The x86 ISA variants the hot kernels are compiled for, and the one
 * run-time choice among them. src/ops/CMakeLists.txt builds the packed
 * GEMM (ops/gemm_kernel.h) and the element-wise kernels
 * (ops/elementwise_kernel.h) once per variant, both TUs of an ISA
 * together; gemmPackedRows and the element-wise entry points of
 * ops/elementwise_dispatch.h all run dispatchedCpuIsa(). Every variant
 * is built with -ffp-contract=off and gives the same bits.
 */

#ifndef BERTPROF_OPS_CPU_ISA_H
#define BERTPROF_OPS_CPU_ISA_H

#include <vector>

namespace bertprof {

/** The compiled kernel variants, narrowest first. */
enum class CpuIsa { Sse2, Avx2, Avx512 };

/** "sse2", "avx2" or "avx512". */
const char *cpuIsaName(CpuIsa isa);

/** The CPU features the variant choice depends on. */
struct CpuFeatures {
    bool avx2 = false;
    bool avx512f = false;
};

/**
 * The widest variant this build compiled that `features` can run
 * (AVX-512 needs avx512f and avx2, since -mavx512f implies -mavx2);
 * sse2 when none is reported. Pure: a function of its argument and
 * the build.
 */
CpuIsa selectCpuIsa(const CpuFeatures &features);

/** The variant the kernels run: selectCpuIsa of this host's features
 * as __builtin_cpu_supports reports them (a feature counts only when
 * the OS enables its register state; none off x86), resolved once per
 * process. */
CpuIsa dispatchedCpuIsa();

/** The variants this build compiled that this host can run, narrowest
 * first; always starts with sse2. */
std::vector<CpuIsa> availableCpuIsas();

/** Whether `isa` is in availableCpuIsas(). Running a variant the host
 * lacks would fault on an illegal instruction, so the per-variant
 * entry points require this. */
bool cpuIsaAvailable(CpuIsa isa);

} // namespace bertprof

#endif // BERTPROF_OPS_CPU_ISA_H
