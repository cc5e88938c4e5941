/**
 * @file
 * Shared pieces of the repo benchmark: run arguments, sample
 * statistics, the in-memory span log of the traced run, and the
 * report that prints every metric and the final JSON result line.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/profiler.h"

namespace perfbench {

/** Command-line arguments of one benchmark run. */
struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (JSON). */
    std::string traceOut;
};

/** Steady-clock nanoseconds (the clock the library times with). */
std::int64_t nowNs();

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/** Linearly interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** Third minus first quartile. */
double iqr(const std::vector<double> &v);

/**
 * The highest percentile with at least ten samples beyond it: the
 * (n-10)th smallest value, labelled p(100 * (n-10) / n). With fewer
 * than eleven samples it is the maximum, labelled p100.
 */
struct Tail {
    double value = 0.0;
    double percentile = 100.0;
};
Tail tail(std::vector<double> v);

/**
 * CPU time of the whole process (every thread, user + system) in
 * seconds. The kernel leaves out time the hypervisor gave this guest's
 * vCPUs to other guests (steal), which wall time includes.
 */
double processCpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/**
 * In-memory spans recorded around the public calls the benchmark
 * makes: name, start, end, parent (index into the log, -1 for a
 * root) and the key shared by one step or one request.
 */
struct Span {
    const char *name = "";
    std::int64_t key = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
};

class SpanLog
{
  public:
    /** Open a span now; returns its index. */
    int begin(const char *name, std::int64_t key, int parent = -1);
    /** Close a span opened by begin(). */
    void end(int index);
    /** Append a span whose times are already known. */
    int add(const char *name, std::int64_t key, std::int64_t start_ns,
            std::int64_t end_ns, int parent = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Seconds from start to end of span `index`. */
    double seconds(int index) const;

    /** Write all spans as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** A metric the result line reports: its name and unit. */
struct MetricSpec {
    const char *name;
    const char *unit;
};

/** Every metric the run measured, and the correctness verdict. */
class Report
{
  public:
    /** Record a metric; `samples` is how many values it summarizes. */
    void add(const std::string &name, double value, const std::string &unit,
             std::int64_t samples, const std::string &note = "");

    /**
     * Add the `ops.*` and `runtime.kernel*` metrics of a Profiler's
     * records, which cover `units` steps or batches (`per` names the
     * unit); times are reported per unit.
     */
    void addKernels(const bertprof::Profiler &profiler, double units,
                    const char *per);

    /** Record a failed correctness check (the run is then incorrect). */
    void fail(const std::string &why);

    bool correct() const { return failures_.empty(); }

    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    /**
     * Print every metric, then the result line: a JSON object whose
     * metrics are exactly `specs`. With `zero_if_missing` a metric of
     * a layer the workload does not exercise is reported as 0;
     * otherwise a missing metric (or a unit that differs from its
     * spec) is a benchmark bug and makes print() return false
     * without printing the result line.
     */
    bool print(const std::vector<MetricSpec> &specs,
               bool zero_if_missing) const;

  private:
    struct Entry {
        double value = 0.0;
        std::string unit;
        std::int64_t samples = 0;
        std::string note;
    };
    std::map<std::string, Entry> metrics_;
    std::vector<std::string> order_;
    std::vector<std::string> failures_;
};

/** The training workload (`train-tiny`). */
void runTraining(const RunArgs &args, Report &report);

/** The serving workload (`serve-mixed`). */
void runServing(const RunArgs &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
