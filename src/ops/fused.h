/**
 * @file
 * Fused CPU kernels for the paper's Sec. 6.1 software optimizations,
 * implemented for real (the analytical model in src/perf only
 * predicts their effect; bench_fig12a/b compare the two). They are
 * the eval schedule: every eval forward (and so every served batch)
 * runs them, while training runs the unfused per-op chain, which is
 * also their model-level oracle (DESIGN.md §13).
 *
 *  - bias + GeLU          (the FC1 epilogue, one pass instead of two)
 *  - residual + LayerNorm (the DR+RC+LN tail, sum never materialized)
 *  - score->softmax->context attention (one pass over each score row,
 *                          no [B*h, n, n] probs tensor)
 *  - packed QKV projection (one GEMM over a 3H-wide concatenated
 *                          weight: pack(A) amortized across Q, K, V)
 *
 * Parity contract versus the unfused kernel chain (the oracle):
 *
 *  - fusedBiasGeluForward: bitwise (same per-element floats in the
 *    same order as bias then GeLU).
 *  - fusedResidualLayerNormForward: bitwise (the residual sum is the
 *    same float the unfused addForward writes; LN row math is
 *    identical).
 *  - fusedQkvForward: bitwise per GEMM engine (each output element's
 *    accumulation order depends only on k and the K-blocking, which a
 *    3x wider N does not change).
 *  - fusedAttentionEvalForward: tolerance-only (row-dot accumulation
 *    replaces the blocked batched-GEMM association).
 *
 * Every kernel reports KernelStats with flops summed from the
 * constituent unfused ops and bytes counted at the *fused* traffic,
 * so Fig. 3/4 breakdowns stay meaningful and the traffic savings are
 * visible to the profiler.
 */

#ifndef BERTPROF_OPS_FUSED_H
#define BERTPROF_OPS_FUSED_H

#include "ops/kernel_stats.h"
#include "tensor/tensor.h"

namespace bertprof {

/**
 * out = GeLU(in + bias) in one pass. `in` is [rows, cols] (the raw
 * FC GEMM output, pre-bias), bias is [cols]. Bitwise identical to
 * biasForward followed by geluForward.
 */
KernelStats fusedBiasGeluForward(const Tensor &in, const Tensor &bias,
                                 Tensor &out);

/**
 * out = LayerNorm(a + b) in one pass; the residual sum lives in a
 * per-thread row buffer and is never written to memory. Bitwise
 * identical to addForward followed by layerNormForward, including the
 * per-row [rows] mean/rstd outputs.
 */
KernelStats fusedResidualLayerNormForward(const Tensor &a, const Tensor &b,
                                          const Tensor &gamma,
                                          const Tensor &beta, Tensor &out,
                                          Tensor &mean, Tensor &rstd,
                                          float eps = 1e-5f);

/**
 * Fused Q/K/V projection: one [T, H] x [H, 3H] GEMM over the row-wise
 * concatenation [Wq; Wk; Wv], then a fused bias-add + split-heads
 * epilogue writing the three [B*h, n, d/h] operands the attention
 * batched GEMMs consume. x is [T, H] with T = batch*seq; wq/wk/wv are
 * [H, H]; bq/bk/bv are [H].
 */
KernelStats fusedQkvForward(const Tensor &x, const Tensor &wq,
                            const Tensor &wk, const Tensor &wv,
                            const Tensor &bq, const Tensor &bk,
                            const Tensor &bv, std::int64_t batch,
                            std::int64_t seq, std::int64_t heads,
                            Tensor &q3d, Tensor &k3d, Tensor &v3d);

/**
 * Fused attention: per head-group, a packed-microkernel
 * q k^T GEMM (scale in alpha) lands in a per-worker cache-resident
 * [n, n] score block, mask+softmax run over its rows in place, and a
 * packed P v GEMM produces the context — the [B*h, n, n] score/probs
 * tensors are never materialized (tolerance parity vs the unfused
 * chain). q3d/k3d/v3d are [B*h, n, d/h]; mask is either [n, n]
 * (broadcast) or [B, n, n] (per-sequence, group g uses row g/heads);
 * context is [B*h, n, d/h]; scale is 1/sqrt(d/h).
 */
KernelStats fusedAttentionEvalForward(const Tensor &q3d, const Tensor &k3d,
                                      const Tensor &v3d, const Tensor &mask,
                                      std::int64_t heads, float scale,
                                      Tensor &context);

} // namespace bertprof

#endif // BERTPROF_OPS_FUSED_H
