#include "ops/gemm_microkernel.h"

#include "ops/gemm_kernel.h"
#include "util/logging.h"

namespace bertprof {

namespace {

/** The variant's entry point; null when this build did not compile
 * its TU (BERTPROF_GEMM_HAS_* come from src/ops/CMakeLists.txt). */
GemmPackedRowsKernel *
kernelFor(GemmIsa isa)
{
    switch (isa) {
    case GemmIsa::Sse2:
        return gemmPackedRowsSse2;
#ifdef BERTPROF_GEMM_HAS_AVX2
    case GemmIsa::Avx2:
        return gemmPackedRowsAvx2;
#endif
#ifdef BERTPROF_GEMM_HAS_AVX512
    case GemmIsa::Avx512:
        return gemmPackedRowsAvx512;
#endif
    default:
        return nullptr;
    }
}

GemmCpuFeatures
hostFeatures()
{
    GemmCpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2");
    f.avx512f = __builtin_cpu_supports("avx512f");
#endif
    return f;
}

bool
runs(GemmIsa isa, const GemmCpuFeatures &f)
{
    switch (isa) {
    case GemmIsa::Sse2:
        return true;
    case GemmIsa::Avx2:
        return f.avx2;
    case GemmIsa::Avx512:
        return f.avx512f && f.avx2;
    }
    return false;
}

/** The compiled variants `f` can run, narrowest first. */
std::vector<GemmIsa>
runnable(const GemmCpuFeatures &f)
{
    std::vector<GemmIsa> out;
    for (const GemmIsa isa : {GemmIsa::Sse2, GemmIsa::Avx2, GemmIsa::Avx512})
        if (kernelFor(isa) && runs(isa, f))
            out.push_back(isa);
    return out;
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

const char *
gemmIsaName(GemmIsa isa)
{
    switch (isa) {
    case GemmIsa::Sse2:
        return "sse2";
    case GemmIsa::Avx2:
        return "avx2";
    case GemmIsa::Avx512:
        return "avx512";
    }
    return "unknown";
}

GemmIsa
selectGemmIsa(const GemmCpuFeatures &features)
{
    return runnable(features).back();
}

GemmIsa
dispatchedGemmIsa()
{
    static const GemmIsa isa = selectGemmIsa(hostFeatures());
    return isa;
}

std::vector<GemmIsa>
availableGemmIsas()
{
    return runnable(hostFeatures());
}

void
gemmPackedRows(const float *a, const float *b, float *c, std::int64_t m,
               std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
               float alpha, float beta, std::int64_t row_begin,
               std::int64_t row_end)
{
    static GemmPackedRowsKernel *const kernel =
        kernelFor(dispatchedGemmIsa());
    runPacked(kernel, a, b, c, m, n, k, trans_a, trans_b, alpha, beta,
              row_begin, row_end);
}

void
gemmPackedRowsFor(GemmIsa isa, const float *a, const float *b, float *c,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  bool trans_a, bool trans_b, float alpha, float beta,
                  std::int64_t row_begin, std::int64_t row_end)
{
    // Running a variant the host lacks would fault on an illegal
    // instruction; fail with a message instead.
    BP_REQUIRE(kernelFor(isa) && runs(isa, hostFeatures()));
    runPacked(kernelFor(isa), a, b, c, m, n, k, trans_a, trans_b, alpha,
              beta, row_begin, row_end);
}

} // namespace bertprof
