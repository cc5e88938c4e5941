/**
 * @file
 * The packed GEMM loop nest as one template over the register-tile
 * geometry <MR, NR>: operand packing, the MR x NR microkernel, the
 * tile store and the five-loop BLIS nest of ops/gemm_microkernel.h.
 * Each gemm_kernel_<isa>.cc instantiates it once, compiled with that
 * ISA's flags; ops/gemm_microkernel.cc picks one at run time.
 *
 * Packing follows BLIS: an operand block is split into fixed-width
 * micro-panels stored contiguously so the microkernel's inner loop
 * reads both operands with unit stride, regardless of how the source
 * matrix was stored or transposed. Logical transposition is absorbed
 * in packing — op(A)/op(B) are described by a (row, col) stride pair
 * — so all four trans_a/trans_b combinations feed the same
 * microkernel. Ragged edges are zero-padded to the full panel width;
 * the pad contributes exact zeros, so every valid output element sees
 * the arithmetic it would in a full tile.
 *
 * Everything here has internal linkage (anonymous namespace) and
 * calls nothing from the standard library. The including TUs are
 * built with different -m flags; an inline or template definition
 * with external linkage would be emitted by each of them, and the
 * linker may keep the AVX-512 copy for every caller (an ODR
 * violation that faults on hosts without the ISA).
 */

#ifndef BERTPROF_OPS_GEMM_KERNEL_H
#define BERTPROF_OPS_GEMM_KERNEL_H

#include <cstdint>

#include "ops/gemm_microkernel.h"

namespace bertprof {

/** One ISA's packed GEMM over rows [row_begin, row_end); arguments as
 * gemmPackedRows, plus packing buffers of kGemmMC * kGemmKC (A) and
 * kGemmNC * kGemmKC (B) floats owned by the calling thread. */
using GemmPackedRowsKernel =
    void(const float *a, const float *b, float *c, std::int64_t m,
         std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
         float alpha, float beta, std::int64_t row_begin,
         std::int64_t row_end, float *a_packed, float *b_packed);

/** The per-ISA instantiations (gemm_kernel_<isa>.cc). The AVX2 and
 * AVX-512 ones exist only when the build compiles their TU. */
GemmPackedRowsKernel gemmPackedRowsSse2;
GemmPackedRowsKernel gemmPackedRowsAvx2;
GemmPackedRowsKernel gemmPackedRowsAvx512;

namespace {

inline std::int64_t
minExtent(std::int64_t x, std::int64_t y)
{
    return x < y ? x : y;
}

/**
 * Pack an mc x kc block of op(A) into mr-row micro-panels.
 *
 * Element op(A)(i, p) of the block is a[i * row_stride + p * col_stride].
 * Output layout: ceil(mc/mr) panels, each kc runs of mr contiguous
 * values (rows i0..i0+mr of column p); rows past mc are zero-filled.
 * dst must hold ceil(mc/mr) * mr * kc floats.
 */
inline void
packA(const float *a, std::int64_t row_stride, std::int64_t col_stride,
      std::int64_t mc, std::int64_t kc, std::int64_t mr, float *dst)
{
    for (std::int64_t i0 = 0; i0 < mc; i0 += mr) {
        const std::int64_t rows = minExtent(mr, mc - i0);
        const float *panel = a + i0 * row_stride;
        for (std::int64_t p = 0; p < kc; ++p) {
            const float *col = panel + p * col_stride;
            std::int64_t r = 0;
            for (; r < rows; ++r)
                dst[r] = col[r * row_stride];
            for (; r < mr; ++r)
                dst[r] = 0.0f;
            dst += mr;
        }
    }
}

/**
 * Pack a kc x nc block of op(B) into nr-column micro-panels.
 *
 * Element op(B)(p, j) of the block is b[p * row_stride + j * col_stride].
 * Output layout: ceil(nc/nr) panels, each kc runs of nr contiguous
 * values (columns j0..j0+nr of row p); columns past nc are
 * zero-filled. dst must hold ceil(nc/nr) * nr * kc floats.
 */
inline void
packB(const float *b, std::int64_t row_stride, std::int64_t col_stride,
      std::int64_t kc, std::int64_t nc, std::int64_t nr, float *dst)
{
    for (std::int64_t j0 = 0; j0 < nc; j0 += nr) {
        const std::int64_t cols = minExtent(nr, nc - j0);
        const float *panel = b + j0 * col_stride;
        if (cols == nr && col_stride == 1) {
            // Full panel of a row-major (non-transposed) B: each run
            // is a straight contiguous copy.
            for (std::int64_t p = 0; p < kc; ++p) {
                const float *row = panel + p * row_stride;
                for (std::int64_t j = 0; j < nr; ++j)
                    dst[j] = row[j];
                dst += nr;
            }
        } else {
            for (std::int64_t p = 0; p < kc; ++p) {
                const float *row = panel + p * row_stride;
                std::int64_t j = 0;
                for (; j < cols; ++j)
                    dst[j] = row[j * col_stride];
                for (; j < nr; ++j)
                    dst[j] = 0.0f;
                dst += nr;
            }
        }
    }
}

/**
 * Rank-kc update of one MR x NR register tile from packed panels:
 * acc[r][j] = sum_p ap[p*MR + r] * bp[p*NR + j]. Fixed trip counts
 * and unit-stride loads let the compiler hold `acc` in vector
 * registers; the including TU is built with -ffp-contract=off, so
 * each step stays a rounded multiply then a rounded add on every ISA.
 */
template <std::int64_t MR, std::int64_t NR>
inline void
microkernelAccumulate(const float *ap, const float *bp, std::int64_t kc,
                      float *acc)
{
    for (std::int64_t p = 0; p < kc; ++p) {
        const float *arow = ap + p * MR;
        const float *brow = bp + p * NR;
        for (std::int64_t r = 0; r < MR; ++r) {
            const float av = arow[r];
            float *accrow = acc + r * NR;
            for (std::int64_t j = 0; j < NR; ++j)
                accrow[j] += av * brow[j];
        }
    }
}

/**
 * Fold one tile's rank-kc accumulation into C[0..mr, 0..nr] (leading
 * dimension ldc). The first KC block applies alpha/beta (beta == 0
 * overwrites, matching the reference kernel's NaN-safe semantics);
 * later blocks accumulate alpha * acc on top.
 */
template <std::int64_t MR, std::int64_t NR>
inline void
microkernelStore(const float *acc, float *c, std::int64_t ldc,
                 std::int64_t mr, std::int64_t nr, float alpha, float beta,
                 bool first_block)
{
    if (mr == MR && nr == NR && !first_block) {
        // Hot full-tile path: fixed trip counts vectorize cleanly.
        for (std::int64_t r = 0; r < MR; ++r) {
            float *crow = c + r * ldc;
            const float *accrow = acc + r * NR;
            for (std::int64_t j = 0; j < NR; ++j)
                crow[j] += alpha * accrow[j];
        }
        return;
    }
    for (std::int64_t r = 0; r < mr; ++r) {
        float *crow = c + r * ldc;
        const float *accrow = acc + r * NR;
        for (std::int64_t j = 0; j < nr; ++j) {
            const float scaled = alpha * accrow[j];
            if (!first_block)
                crow[j] += scaled;
            else if (beta == 0.0f)
                crow[j] = scaled;
            else
                crow[j] = scaled + beta * crow[j];
        }
    }
}

/** The five-loop nest with an MR x NR register tile; see
 * GemmPackedRowsKernel for the arguments. */
template <std::int64_t MR, std::int64_t NR>
void
packedRows(const float *a, const float *b, float *c, std::int64_t m,
           std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
           float alpha, float beta, std::int64_t row_begin,
           std::int64_t row_end, float *a_packed, float *b_packed)
{
    static_assert(kGemmMC % MR == 0, "MC must be a multiple of MR");
    static_assert(kGemmNC % NR == 0, "NC must be a multiple of NR");

    // Strides describing op(A)(i, p) and op(B)(p, j) over the
    // row-major storage; packing absorbs them into contiguous panels.
    const std::int64_t a_rs = trans_a ? 1 : k;
    const std::int64_t a_cs = trans_a ? m : 1;
    const std::int64_t b_rs = trans_b ? 1 : n;
    const std::int64_t b_cs = trans_b ? k : 1;

    // Degenerate k == 0: no product terms, but beta must still apply.
    if (k == 0) {
        for (std::int64_t i = row_begin * n; i < row_end * n; ++i)
            c[i] = beta == 0.0f ? 0.0f : c[i] * beta;
        return;
    }

    for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
        const std::int64_t nc = minExtent(kGemmNC, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
            const std::int64_t kc = minExtent(kGemmKC, k - pc);
            const bool first_block = pc == 0;
            packB(b + pc * b_rs + jc * b_cs, b_rs, b_cs, kc, nc, NR,
                  b_packed);
            for (std::int64_t ic = row_begin; ic < row_end; ic += kGemmMC) {
                const std::int64_t mc = minExtent(kGemmMC, row_end - ic);
                packA(a + ic * a_rs + pc * a_cs, a_rs, a_cs, mc, kc, MR,
                      a_packed);
                for (std::int64_t ir = 0; ir < mc; ir += MR) {
                    const std::int64_t mr = minExtent(MR, mc - ir);
                    const float *ap = a_packed + (ir / MR) * MR * kc;
                    float *crow = c + (ic + ir) * n + jc;
                    for (std::int64_t jr = 0; jr < nc; jr += NR) {
                        const std::int64_t nr = minExtent(NR, nc - jr);
                        const float *bp = b_packed + (jr / NR) * NR * kc;
                        alignas(64) float acc[MR * NR] = {};
                        microkernelAccumulate<MR, NR>(ap, bp, kc, acc);
                        microkernelStore<MR, NR>(acc, crow + jr, n, mr, nr,
                                                 alpha, beta, first_block);
                    }
                }
            }
        }
    }
}

} // namespace

} // namespace bertprof

#endif // BERTPROF_OPS_GEMM_KERNEL_H
