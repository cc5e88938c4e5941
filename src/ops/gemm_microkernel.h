/**
 * @file
 * Packed, register-blocked GEMM engine for the CPU substrate — the
 * BLIS decomposition of C = alpha * op(A) op(B) + beta * C:
 *
 *   jc-loop over N in NC panels        (B panel -> L3)
 *     pc-loop over K in KC blocks      (packed B block -> L2/L3)
 *       pack op(B)[pc, jc] into NR-wide micro-panels
 *       ic-loop over M in MC blocks    (packed A block -> L2)
 *         pack op(A)[ic, pc] into MR-tall micro-panels
 *         ir/jr-loops over MR x NR register tiles -> microkernel
 *
 * The microkernel accumulates an MR x NR tile in a local register
 * block with unit-stride loads from both packed panels; the inner
 * loop is written so the compiler auto-vectorizes it. Packing absorbs
 * all four transpose combinations, so the transposed-operand GEMMs
 * (attention K^T, every backward weight gradient) run the same
 * contiguous hot loop as the non-transposed ones.
 *
 * ISA dispatch: the loop nest (ops/gemm_kernel.h) is compiled once per
 * x86 ISA — SSE2 4x8, AVX2 4x32, AVX-512F 8x32 tiles — and
 * gemmPackedRows runs the widest one the host supports, chosen once
 * per process (ops/cpu_isa.h). Every variant is built with
 * -ffp-contract=off.
 *
 * Determinism: each output element's accumulation order is a pure
 * function of (n, k) — KC blocks in ascending pc order, products in
 * ascending p order within a block, each a rounded multiply then a
 * rounded add — and never of the row partition, the tile geometry or
 * the ISA executing it. Output is therefore bitwise identical for
 * every thread count, every variant and every build (it differs from
 * the reference kernel, which associates differently).
 */

#ifndef BERTPROF_OPS_GEMM_MICROKERNEL_H
#define BERTPROF_OPS_GEMM_MICROKERNEL_H

#include <cstdint>

#include "ops/cpu_isa.h"

namespace bertprof {

/** K extent of a packed block: an MR x KC A-panel plus an NR x KC
 * B-panel stay L1-resident. Fixed across ISAs — KC is the one
 * blocking parameter that shapes accumulation order. */
inline constexpr std::int64_t kGemmKC = 256;

/** M extent of a packed A block (L2-resident; a multiple of every
 * variant's MR, so edge handling is ISA-independent). */
inline constexpr std::int64_t kGemmMC = 96;

/** N extent of a packed B block (a multiple of every variant's NR). */
inline constexpr std::int64_t kGemmNC = 1024;

/**
 * Packed GEMM restricted to output rows [row_begin, row_end) of a
 * row-major MxN C: C = alpha * op(A) op(B) + beta * C. op(A) is MxK
 * (A stored KxM when trans_a), op(B) is KxN (B stored NxK when
 * trans_b). Uses thread-local packing buffers — safe to call
 * concurrently on disjoint row ranges, e.g. from parallelFor with a
 * kGemmMC grain. Runs dispatchedCpuIsa().
 */
void gemmPackedRows(const float *a, const float *b, float *c, std::int64_t m,
                    std::int64_t n, std::int64_t k, bool trans_a,
                    bool trans_b, float alpha, float beta,
                    std::int64_t row_begin, std::int64_t row_end);

/** gemmPackedRows on a named variant, for tests and benches that
 * compare variants. `isa` must satisfy cpuIsaAvailable(). */
void gemmPackedRowsFor(CpuIsa isa, const float *a, const float *b,
                       float *c, std::int64_t m, std::int64_t n,
                       std::int64_t k, bool trans_a, bool trans_b,
                       float alpha, float beta, std::int64_t row_begin,
                       std::int64_t row_end);

} // namespace bertprof

#endif // BERTPROF_OPS_GEMM_MICROKERNEL_H
