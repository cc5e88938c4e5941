/**
 * @file
 * Runtime configuration for the CPU substrate's execution engine.
 *
 * Thread count resolution order: programmatic override
 * (setNumThreads) > BERTPROF_NUM_THREADS environment variable >
 * hardware concurrency. A count of 1 selects the pure serial path,
 * which executes exactly the same instruction sequence as the
 * pre-runtime substrate.
 *
 * GEMM implementation resolution order mirrors it: programmatic
 * override (setGemmImpl) > BERTPROF_GEMM_IMPL environment variable
 * ("packed" or "reference") > the packed default. "reference"
 * selects the original blocked triple-loop kernel bit-for-bit.
 *
 * The kernel schedule is not configurable: it follows the module's
 * mode (DESIGN.md §13). Eval runs the fused kernels, training runs
 * the per-op chain.
 */

#ifndef BERTPROF_RUNTIME_CONFIG_H
#define BERTPROF_RUNTIME_CONFIG_H

namespace bertprof {

/**
 * Number of execution lanes the runtime should use (always >= 1).
 * Resolved once per change: an explicit setNumThreads() override wins,
 * then BERTPROF_NUM_THREADS, then std::thread::hardware_concurrency().
 */
int configuredNumThreads();

/**
 * Override the thread count programmatically (benches and tests
 * sweep this). Resizes the live pool if one exists; n < 1 clears the
 * override and re-resolves from the environment.
 */
void setNumThreads(int n);

/** Which GEMM engine gemm()/batchedGemm() dispatch to. */
enum class GemmImpl {
    /** BLIS-style packed, register-blocked microkernel (default). */
    Packed,
    /** Original blocked triple loop — the cross-check oracle; exactly
     * the pre-microkernel code path. */
    Reference,
};

/** Short name: "packed" / "reference". */
const char *gemmImplName(GemmImpl impl);

/**
 * The GEMM engine in effect: an explicit setGemmImpl() override wins,
 * then BERTPROF_GEMM_IMPL ("packed" | "reference"), then Packed.
 */
GemmImpl configuredGemmImpl();

/** Override the GEMM engine programmatically (tests and benches
 * sweep both). Cleared by clearGemmImplOverride(). */
void setGemmImpl(GemmImpl impl);

/** Drop the programmatic override and re-resolve from the
 * environment. */
void clearGemmImplOverride();

/**
 * The eval schedule's name, kept only because perfbench's knob line
 * prints it (perfbench sits under the benchmark's frozen paths).
 * There is no fusion knob: eval always runs the fused kernels and
 * training always runs the per-op chain, so this is a constant.
 */
enum class FusionMode {
    Off,
    /** Fused kernels (bias+GeLU, residual+LN, one-pass attention,
     * packed QKV) — the eval schedule. */
    On,
};

/** Short name: "off" / "on". */
const char *fusionModeName(FusionMode mode);

/** Always FusionMode::On, the eval schedule; see FusionMode. */
FusionMode configuredFusionMode();

} // namespace bertprof

#endif // BERTPROF_RUNTIME_CONFIG_H
