// The AVX2 packed GEMM: a 4x32 register tile, built with -mavx2 and
// -ffp-contract=off (src/ops/CMakeLists.txt). x86-64 only. Not 6x16:
// GCC 12 compiles every NR = 16 tile tried into a shuffle-heavy loop
// at 1-3 GFLOP/s; 4x32 ran 42-45 (DESIGN.md section 8).
#include "ops/gemm_kernel.h"

namespace bertprof {

void
gemmPackedRowsAvx2(const float *a, const float *b, float *c, std::int64_t m,
                   std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
                   float alpha, float beta, std::int64_t row_begin,
                   std::int64_t row_end, float *a_packed, float *b_packed)
{
    packedRows<4, 32>(a, b, c, m, n, k, trans_a, trans_b, alpha, beta,
                      row_begin, row_end, a_packed, b_packed);
}

} // namespace bertprof
