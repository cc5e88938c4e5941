#include "runtime/config.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "runtime/env.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

namespace bertprof {

namespace {

// 0 means "no override"; read/written from multiple threads in tests.
std::atomic<int> g_override{0};

// The environment is re-read on every query; warn about a bad value
// only once per process instead of on each pool resize/lookup.
std::atomic<bool> g_warned_bad_env{false};

// GEMM engine override: -1 none, otherwise a GemmImpl enumerator.
std::atomic<int> g_gemm_override{-1};

std::atomic<bool> g_warned_bad_gemm_env{false};

int
threadsFromEnvironment()
{
    const std::int64_t v = envInt("BERTPROF_NUM_THREADS", 1, 1024,
                                  /*fallback=*/0, g_warned_bad_env);
    if (v > 0)
        return static_cast<int>(v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

int
configuredNumThreads()
{
    const int override_threads = g_override.load(std::memory_order_acquire);
    if (override_threads > 0)
        return override_threads;
    return threadsFromEnvironment();
}

void
setNumThreads(int n)
{
    g_override.store(n >= 1 ? n : 0, std::memory_order_release);
    ThreadPool::instance().resize(configuredNumThreads());
}

const char *
gemmImplName(GemmImpl impl)
{
    return impl == GemmImpl::Packed ? "packed" : "reference";
}

GemmImpl
configuredGemmImpl()
{
    const int override_impl = g_gemm_override.load(std::memory_order_acquire);
    if (override_impl >= 0)
        return static_cast<GemmImpl>(override_impl);
    const char *env = std::getenv("BERTPROF_GEMM_IMPL");
    if (env && *env) {
        if (std::strcmp(env, "packed") == 0)
            return GemmImpl::Packed;
        if (std::strcmp(env, "reference") == 0)
            return GemmImpl::Reference;
        if (!g_warned_bad_gemm_env.exchange(true))
            BP_LOG(Warn) << "ignoring invalid BERTPROF_GEMM_IMPL=\"" << env
                         << "\" (want \"packed\" or \"reference\")";
    }
    return GemmImpl::Packed;
}

void
setGemmImpl(GemmImpl impl)
{
    g_gemm_override.store(static_cast<int>(impl), std::memory_order_release);
}

void
clearGemmImplOverride()
{
    g_gemm_override.store(-1, std::memory_order_release);
}

const char *
fusionModeName(FusionMode mode)
{
    return mode == FusionMode::On ? "on" : "off";
}

FusionMode
configuredFusionMode()
{
    return FusionMode::On;
}

} // namespace bertprof
