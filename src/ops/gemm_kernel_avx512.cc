// The AVX-512F packed GEMM: an 8x32 register tile, built with
// -mavx512f and -ffp-contract=off (src/ops/CMakeLists.txt). x86-64
// only.
#include "ops/gemm_kernel.h"

namespace bertprof {

void
gemmPackedRowsAvx512(const float *a, const float *b, float *c,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     bool trans_a, bool trans_b, float alpha, float beta,
                     std::int64_t row_begin, std::int64_t row_end,
                     float *a_packed, float *b_packed)
{
    packedRows<8, 32>(a, b, c, m, n, k, trans_a, trans_b, alpha, beta,
                      row_begin, row_end, a_packed, b_packed);
}

} // namespace bertprof
