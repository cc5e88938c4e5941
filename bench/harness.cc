#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "ops/cpu_isa.h"
#include "runtime/config.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace bertprof::bench {

namespace {

/** Interpolated order statistic at position q * (n - 1). */
double
quantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
}

std::string
formatNumber(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

/** A JSON string literal for `s`, quotes included. */
std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

/** A JSON number, or null for NaN/inf (JSON has neither). */
std::string
jsonNumber(double v)
{
    return std::isfinite(v) ? formatNumber("%.10g", v) : "null";
}

std::string
cell(double v, const char *missing)
{
    return std::isfinite(v) ? formatNumber("%.4g", v) : missing;
}

[[noreturn]] void
usage(const char *prog, const std::vector<std::string> &switches,
      const std::vector<std::string> &valued)
{
    std::string flags = "[--quick] [--json <path>]";
    for (const std::string &s : switches)
        flags += " [" + s + "]";
    for (const std::string &v : valued)
        flags += " [" + v + " <value>]";
    std::fprintf(stderr, "usage: %s %s\n", prog, flags.c_str());
    std::exit(2);
}

} // namespace

Args
parseArgs(int argc, char **argv, const std::vector<std::string> &switches,
          const std::vector<std::string> &valued)
{
    const auto listed = [](const std::vector<std::string> &list,
                           const std::string &flag) {
        return std::find(list.begin(), list.end(), flag) != list.end();
    };
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool takes_value = flag == "--json" || listed(valued, flag);
        if (takes_value && i + 1 >= argc)
            usage(argv[0], switches, valued);
        if (flag == "--quick")
            args.quick = true;
        else if (flag == "--json")
            args.jsonPath = argv[++i];
        else if (takes_value)
            args.extra[flag] = argv[++i];
        else if (listed(switches, flag))
            args.extra[flag] = "";
        else
            usage(argv[0], switches, valued);
    }
    return args;
}

Stats
summarize(std::vector<double> samples)
{
    Stats s;
    s.n = static_cast<int>(samples.size());
    s.samples = samples;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.median = quantile(samples, 0.5);
    s.q1 = quantile(samples, 0.25);
    s.q3 = quantile(samples, 0.75);
    return s;
}

Stats
pairedRatio(const Stats &num, const Stats &den)
{
    const std::size_t n = std::min(num.samples.size(), den.samples.size());
    std::vector<double> ratios(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (den.samples[i] == 0.0) {
            Stats undefined;
            undefined.n = static_cast<int>(n);
            undefined.median = undefined.q1 = undefined.q3 = NAN;
            undefined.zeroBase = true;
            return undefined;
        }
        ratios[i] = num.samples[i] / den.samples[i];
    }
    return summarize(std::move(ratios));
}

double
steadySeconds()
{
    return secondsBetween(MonoTime{}, monoNow());
}

std::vector<Stats>
runRoundRobin(const std::vector<Config> &configs, int reps,
              const Clock &now)
{
    std::vector<std::vector<double>> seconds(configs.size());
    for (int r = -1; r < reps; ++r) { // r == -1: warm-up
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (configs[c].enter)
                configs[c].enter();
            const double start = now();
            configs[c].body();
            const double elapsed = now() - start;
            if (r >= 0)
                seconds[c].push_back(elapsed);
        }
    }
    std::vector<Stats> out;
    for (std::vector<double> &s : seconds)
        out.push_back(summarize(std::move(s)));
    return out;
}

Report::Report(std::string bench, const Args &args)
    : Report(std::move(bench), args.quick,
             {configuredNumThreads(), std::thread::hardware_concurrency(),
              cpuIsaName(dispatchedCpuIsa()), BERTPROF_NATIVE_BUILD != 0})
{
    jsonPath_ = args.jsonPath;
}

Report::Report(std::string bench, bool quick, Host host)
    : bench_(std::move(bench)), quick_(quick), host_(std::move(host))
{
}

void
Report::config(const std::string &key, double value)
{
    config_.push_back({key, {formatNumber("%g", value), jsonNumber(value)}});
}

void
Report::config(const std::string &key, const std::string &value)
{
    config_.push_back({key, {value, jsonQuote(value)}});
}

void
Report::add(Metric metric)
{
    metrics_.push_back(std::move(metric));
}

void
Report::value(const std::string &name, double value, const std::string &unit,
              int n)
{
    add({name, value, unit, n, NAN, NAN});
}

void
Report::stats(const std::string &name, const std::string &unit,
              const Stats &s, double scale)
{
    add({name, s.median * scale, unit, s.n, s.q1 * scale, s.q3 * scale,
         s.zeroBase});
}

void
Report::millis(const std::string &name, const Stats &seconds)
{
    stats(name, "ms", seconds, 1e3);
}

void
Report::rate(const std::string &name, const std::string &unit, double work,
             const Stats &seconds)
{
    add({name, work / seconds.median, unit, seconds.n, work / seconds.q3,
         work / seconds.q1});
}

std::string
Report::text() const
{
    std::string out = bench_ + (quick_ ? " (quick)" : "") +
                      ": threads=" + std::to_string(host_.threads) +
                      ", hardware_concurrency=" +
                      std::to_string(host_.hardwareConcurrency) +
                      ", gemm_isa=" + host_.gemmIsa + ", native_build=" +
                      (host_.nativeBuild ? "true" : "false") + "\n";
    if (!config_.empty()) {
        std::string sep = "config: ";
        for (const auto &[key, v] : config_) {
            out += sep + key + "=" + v.first;
            sep = "; ";
        }
        out += "\n";
    }
    Table table;
    table.setHeader({"Metric", "Value", "Unit", "n", "q1", "q3"});
    for (const Metric &m : metrics_)
        table.addRow({m.name,
                      cell(m.value, m.zeroBase ? "zero base" : "unresolved"),
                      m.unit,
                      std::to_string(m.n), cell(m.q1, "-"),
                      cell(m.q3, "-")});
    return out + table.render();
}

std::string
Report::json() const
{
    std::string out = "{\n  \"bench\": " + jsonQuote(bench_) +
                      ",\n  \"quick\": " + (quick_ ? "true" : "false") +
                      ",\n  \"threads\": " + std::to_string(host_.threads) +
                      ",\n  \"hardware_concurrency\": " +
                      std::to_string(host_.hardwareConcurrency) +
                      ",\n  \"gemm_isa\": " + jsonQuote(host_.gemmIsa) +
                      ",\n  \"native_build\": " +
                      (host_.nativeBuild ? "true" : "false") +
                      ",\n  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i)
        out += (i ? ", " : "") + jsonQuote(config_[i].first) + ": " +
               config_[i].second.second;
    out += "},\n  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += std::string(i ? "," : "") + "\n    {\"name\": " +
               jsonQuote(m.name) + ", \"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonQuote(m.unit) +
               ", \"n\": " + std::to_string(m.n) +
               ", \"q1\": " + jsonNumber(m.q1) +
               ", \"q3\": " + jsonNumber(m.q3) +
               (m.zeroBase ? ", \"zero_base\": true}" : "}");
    }
    return out + "\n  ]\n}\n";
}

int
Report::emit() const
{
    std::printf("%s\n", text().c_str());
    if (jsonPath_.empty())
        return 0;
    std::ofstream f(jsonPath_);
    f << json();
    f.close();
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath_.c_str());
        return 1;
    }
    std::printf("wrote %s\n", jsonPath_.c_str());
    return 0;
}

} // namespace bertprof::bench
