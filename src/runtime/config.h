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
 * Fusion resolution order is the same shape: programmatic override
 * (setFusionMode) > BERTPROF_FUSION environment variable ("on" or
 * "off") > Off. Off keeps the original per-op kernel schedule as the
 * oracle; On runs the eager fused kernels.
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

/** Whether the fused kernels are in effect. */
enum class FusionMode {
    /** Per-op kernel schedule, exactly the pre-fusion code path — the
     * parity oracle. The default. */
    Off,
    /** Fused kernels (bias+GeLU, residual+LN, one-pass attention,
     * packed QKV). */
    On,
};

/** Short name: "off" / "on". */
const char *fusionModeName(FusionMode mode);

/**
 * The fusion mode in effect: an explicit setFusionMode() override
 * wins, then BERTPROF_FUSION ("on" | "off"), then Off.
 */
FusionMode configuredFusionMode();

/** True when configuredFusionMode() == FusionMode::On. */
bool fusionEnabled();

/** Override the fusion mode programmatically (tests and benches
 * sweep both). Cleared by clearFusionModeOverride(). */
void setFusionMode(FusionMode mode);

/** Drop the programmatic override and re-resolve from the
 * environment. */
void clearFusionModeOverride();

} // namespace bertprof

#endif // BERTPROF_RUNTIME_CONFIG_H
