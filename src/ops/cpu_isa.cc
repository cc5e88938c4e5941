#include "ops/cpu_isa.h"

namespace bertprof {

namespace {

/** Whether this build compiled the variant's TUs (BERTPROF_HAS_* come
 * from src/ops/CMakeLists.txt). */
bool
compiled(CpuIsa isa)
{
    switch (isa) {
    case CpuIsa::Sse2:
        return true;
    case CpuIsa::Avx2:
#ifdef BERTPROF_HAS_AVX2
        return true;
#else
        return false;
#endif
    case CpuIsa::Avx512:
#ifdef BERTPROF_HAS_AVX512
        return true;
#else
        return false;
#endif
    }
    return false;
}

CpuFeatures
hostFeatures()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2");
    f.avx512f = __builtin_cpu_supports("avx512f");
#endif
    return f;
}

bool
runs(CpuIsa isa, const CpuFeatures &f)
{
    switch (isa) {
    case CpuIsa::Sse2:
        return true;
    case CpuIsa::Avx2:
        return f.avx2;
    case CpuIsa::Avx512:
        return f.avx512f && f.avx2;
    }
    return false;
}

/** The compiled variants `f` can run, narrowest first. */
std::vector<CpuIsa>
runnable(const CpuFeatures &f)
{
    std::vector<CpuIsa> out;
    for (const CpuIsa isa : {CpuIsa::Sse2, CpuIsa::Avx2, CpuIsa::Avx512})
        if (compiled(isa) && runs(isa, f))
            out.push_back(isa);
    return out;
}

} // namespace

const char *
cpuIsaName(CpuIsa isa)
{
    switch (isa) {
    case CpuIsa::Sse2:
        return "sse2";
    case CpuIsa::Avx2:
        return "avx2";
    case CpuIsa::Avx512:
        return "avx512";
    }
    return "unknown";
}

CpuIsa
selectCpuIsa(const CpuFeatures &features)
{
    return runnable(features).back();
}

CpuIsa
dispatchedCpuIsa()
{
    static const CpuIsa isa = selectCpuIsa(hostFeatures());
    return isa;
}

std::vector<CpuIsa>
availableCpuIsas()
{
    return runnable(hostFeatures());
}

bool
cpuIsaAvailable(CpuIsa isa)
{
    return compiled(isa) && runs(isa, hostFeatures());
}

} // namespace bertprof
