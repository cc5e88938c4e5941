#include "ops/gemm_microkernel.h"

#include <vector>

#include "ops/gemm_kernel.h"
#include "util/logging.h"

namespace bertprof {

namespace {

/** The variant's entry point; null when this build did not compile
 * its TU (BERTPROF_HAS_* come from src/ops/CMakeLists.txt). */
GemmPackedRowsKernel *
kernelFor(CpuIsa isa)
{
    switch (isa) {
    case CpuIsa::Sse2:
        return gemmPackedRowsSse2;
#ifdef BERTPROF_HAS_AVX2
    case CpuIsa::Avx2:
        return gemmPackedRowsAvx2;
#endif
#ifdef BERTPROF_HAS_AVX512
    case CpuIsa::Avx512:
        return gemmPackedRowsAvx512;
#endif
    default:
        return nullptr;
    }
}

void
runPacked(GemmPackedRowsKernel *kernel, const float *a, const float *b,
          float *c, std::int64_t m, std::int64_t n, std::int64_t k,
          bool trans_a, bool trans_b, float alpha, float beta,
          std::int64_t row_begin, std::int64_t row_end)
{
    // Reusable per-thread packing buffers: sized once to the fixed
    // block extents (shared by every variant), so steady-state calls
    // allocate nothing.
    thread_local std::vector<float> a_packed(
        static_cast<std::size_t>(kGemmMC * kGemmKC));
    thread_local std::vector<float> b_packed(
        static_cast<std::size_t>(kGemmNC * kGemmKC));
    kernel(a, b, c, m, n, k, trans_a, trans_b, alpha, beta, row_begin,
           row_end, a_packed.data(), b_packed.data());
}

} // namespace

void
gemmPackedRows(const float *a, const float *b, float *c, std::int64_t m,
               std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
               float alpha, float beta, std::int64_t row_begin,
               std::int64_t row_end)
{
    static GemmPackedRowsKernel *const kernel =
        kernelFor(dispatchedCpuIsa());
    runPacked(kernel, a, b, c, m, n, k, trans_a, trans_b, alpha, beta,
              row_begin, row_end);
}

void
gemmPackedRowsFor(CpuIsa isa, const float *a, const float *b, float *c,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  bool trans_a, bool trans_b, float alpha, float beta,
                  std::int64_t row_begin, std::int64_t row_end)
{
    // Running a variant the host lacks would fault on an illegal
    // instruction; fail with a message instead.
    BP_REQUIRE(cpuIsaAvailable(isa));
    runPacked(kernelFor(isa), a, b, c, m, n, k, trans_a, trans_b, alpha,
              beta, row_begin, row_end);
}

} // namespace bertprof
