#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>
#include <time.h>

#include "trace/taxonomy.h"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
iqr(const std::vector<double> &v)
{
    return quantile(v, 0.75) - quantile(v, 0.25);
}

Tail
tail(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n < 11) {
        t.value = v.back();
        return t;
    }
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
    return t;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int
SpanLog::begin(const char *name, std::int64_t key, int parent)
{
    return add(name, key, nowNs(), 0, parent);
}

void
SpanLog::end(int index)
{
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
}

int
SpanLog::add(const char *name, std::int64_t key, std::int64_t start_ns,
             std::int64_t end_ns, int parent)
{
    Span s;
    s.name = name;
    s.key = key;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.parent = parent;
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
}

double
SpanLog::seconds(int index) const
{
    const Span &s = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"key\":%lld,"
                     "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}%s\n",
                     i, s.name, static_cast<long long>(s.key),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            std::int64_t samples, const std::string &note)
{
    if (!metrics_.count(name))
        order_.push_back(name);
    metrics_[name] = Entry{value, unit, samples, note};
}

void
Report::addKernels(const bertprof::Profiler &profiler, double units,
                   const char *per)
{
    using bertprof::OpKind;
    // Profiler::bySubLayer group -> metric name.
    static const std::pair<const char *, const char *> kGroups[] = {
        {"FC GEMM", "ops.fc_gemm_ms"},
        {"Attn Linear", "ops.attn_linear_ms"},
        {"Attn B-GEMM", "ops.attn_bgemm_ms"},
        {"Scale+Mask+DR+SM", "ops.scale_mask_sm_ms"},
        {"DR+RC+LN", "ops.dr_rc_ln_ms"},
        {"GeLU", "ops.gelu_ms"},
        {"Embedding ops", "ops.embedding_ms"},
        {"Output ops", "ops.output_ms"},
    };
    if (units <= 0.0)
        return;
    const auto groups = profiler.bySubLayer();
    const auto n_units = static_cast<std::int64_t>(units);
    const std::string note = std::string("kernel time per ") + per;
    for (const auto &[group, metric] : kGroups) {
        const auto it = groups.find(group);
        const double s = it == groups.end() ? 0.0 : it->second.seconds;
        add(metric, s * 1e3 / units, "ms", n_units, note);
    }

    double gemm_flops = 0, gemm_s = 0, bgemm_flops = 0, bgemm_s = 0;
    double ew_bytes = 0, ew_s = 0;
    std::vector<double> us;
    for (const auto &rec : profiler.records()) {
        us.push_back(rec.seconds * 1e6);
        if (rec.kind == OpKind::Gemm) {
            gemm_flops += static_cast<double>(rec.stats.flops);
            gemm_s += rec.seconds;
        } else if (rec.kind == OpKind::BatchedGemm) {
            bgemm_flops += static_cast<double>(rec.stats.flops);
            bgemm_s += rec.seconds;
        } else if (rec.kind == OpKind::Elementwise) {
            ew_bytes += static_cast<double>(rec.stats.bytesTotal());
            ew_s += rec.seconds;
        }
    }
    const auto n = static_cast<std::int64_t>(us.size());
    const char *work = "FLOPs and bytes from tensor sizes (KernelStats)";
    add("ops.gemm_gflops", gemm_s > 0 ? gemm_flops / gemm_s * 1e-9 : 0.0,
        "GFLOP/s", n_units, work);
    add("ops.attn_bgemm_gflops",
        bgemm_s > 0 ? bgemm_flops / bgemm_s * 1e-9 : 0.0, "GFLOP/s", n_units,
        work);
    add("ops.elementwise_gbps", ew_s > 0 ? ew_bytes / ew_s * 1e-9 : 0.0,
        "GB/s", n_units, work);
    add("runtime.kernel_us_p50", median(us), "us", n);
    add("runtime.kernels_per_step", static_cast<double>(n) / units, "count",
        n, std::string("kernels per ") + per);
}

void
Report::fail(const std::string &why)
{
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    failures_.push_back(why);
}

bool
Report::print(const std::vector<MetricSpec> &specs,
              bool zero_if_missing) const
{
    std::printf("%-34s %14s  %-8s %8s  %s\n", "metric", "value", "unit",
                "samples", "note");
    for (const std::string &name : order_) {
        const Entry &e = metrics_.at(name);
        std::printf("%-34s %14.6g  %-8s %8lld  %s\n", name.c_str(), e.value,
                    e.unit.c_str(), static_cast<long long>(e.samples),
                    e.note.c_str());
    }
    for (const std::string &why : failures_)
        std::printf("check failed: %s\n", why.c_str());

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const MetricSpec &spec = specs[i];
        const auto it = metrics_.find(spec.name);
        double value = 0.0;
        if (it == metrics_.end()) {
            if (!zero_if_missing) {
                std::fprintf(stderr, "perfbench: metric %s not measured\n",
                             spec.name);
                return false;
            }
            std::printf("%-34s %14s  (layer not exercised by this "
                        "workload: reported as 0)\n",
                        spec.name, "-");
        } else {
            if (it->second.unit != spec.unit || !std::isfinite(
                                                    it->second.value)) {
                std::fprintf(stderr, "perfbench: metric %s is %g %s\n",
                             spec.name, it->second.value,
                             it->second.unit.c_str());
                return false;
            }
            value = it->second.value;
        }
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        json += std::string(i ? ", " : "") + "\"" + spec.name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + spec.unit +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return true;
}

} // namespace perfbench
