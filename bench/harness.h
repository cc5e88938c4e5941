/**
 * @file
 * The one harness every measured bench runs on. It parses the shared
 * `--quick` / `--json <path>` flags, times `{enter, body}`
 * configurations round-robin after one warm-up rep, keeps one list
 * of named metrics, and renders that list both as the printed table
 * and as the JSON file. Every file has the same schema:
 *
 *   {"bench": str, "quick": bool, "threads": int,
 *    "hardware_concurrency": int, "gemm_isa": str, "native_build": bool,
 *    "config": {str: str|number},
 *    "metrics": [{"name", "value", "unit", "n", "q1", "q3"
 *                 [, "zero_base": true]}]}
 *
 * `threads` through `native_build` fingerprint the host and build:
 * the runtime's thread count, std::thread::hardware_concurrency(),
 * the kernel variant the run dispatched to ("sse2", "avx2", "avx512";
 * the packed GEMM and the element-wise kernels share it, see
 * ops/cpu_isa.h) and whether it was built with -DBERTPROF_NATIVE=ON.
 * `value` is the median for a timed metric and `q1`/`q3` its first
 * and third quartiles over `n` reps. `q1`/`q3` are null for a value
 * measured once (a count, a one-shot ratio), and `value` is null for
 * an effect the spread cannot resolve. A ratio whose base read 0 has
 * no value either; it carries `"zero_base": true` and prints as
 * "zero base" where an unresolved effect prints "unresolved".
 */

#ifndef BERTPROF_BENCH_HARNESS_H
#define BERTPROF_BENCH_HARNESS_H

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bertprof::bench {

/** The command line of one bench run. */
struct Args {
    bool quick = false;
    std::string jsonPath; ///< empty: write no JSON
    /** The bench's own flags that were given; "" for a switch. */
    std::map<std::string, std::string> extra;

    bool has(const std::string &flag) const { return extra.count(flag); }
};

/**
 * Parse `--quick` and `--json <path>`. `switches` and `valued` name
 * the bench's own flags (e.g. `--overload`, `--record <path>`).
 * Anything else prints usage to stderr and exits with status 2.
 */
Args parseArgs(int argc, char **argv,
               const std::vector<std::string> &switches = {},
               const std::vector<std::string> &valued = {});

/** Median, quartiles and size of a sample. */
struct Stats {
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    int n = 0;
    /** The sample in run order (rep i of every config shares a
     *  round, so samples pair up across configs). */
    std::vector<double> samples;
    /** Set by pairedRatio when some rep's base was 0: the ratio is
     *  undefined, so median and quartiles are NaN. */
    bool zeroBase = false;
};

/** Summarize a sample; quartiles interpolate between order
 *  statistics (position q * (n - 1)). Empty -> all zero. */
Stats summarize(std::vector<double> samples);

/** Per-rep ratio num[i] / den[i], summarized. Pairing by rep cancels
 *  host drift that hits both configs of one round alike. A 0 in
 *  `den` makes the whole ratio undefined (Stats::zeroBase). */
Stats pairedRatio(const Stats &num, const Stats &den);

/** One measured configuration: `enter` sets it up (untimed), `body`
 *  is the timed span. An empty `enter` is skipped. */
struct Config {
    std::function<void()> enter;
    std::function<void()> body;
};

/** Monotonic seconds; injectable so tests can see what is timed. */
using Clock = std::function<double()>;

/** Seconds on the steady clock. */
double steadySeconds();

/**
 * One untimed warm-up rep, then `reps` reps. Each rep runs every
 * config in declared order: enter(), then the timed body(). Returns
 * each config's body seconds. Round-robin order makes host drift
 * (frequency scaling, noisy neighbours on a shared VM) land on every
 * config alike; shared-host noise is additive, so the median tracks
 * the undisturbed cost where a mean would absorb every preemption.
 */
std::vector<Stats> runRoundRobin(const std::vector<Config> &configs,
                                 int reps,
                                 const Clock &now = steadySeconds);

/** One named result. NaN in `value`, `q1` or `q3` is written null. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int n = 1;
    double q1 = 0.0;
    double q3 = 0.0;
    /** A ratio over a zero base (Stats::zeroBase). */
    bool zeroBase = false;
};

/** The host and build a report was measured on. */
struct Host {
    int threads = 1;
    unsigned hardwareConcurrency = 1;
    std::string gemmIsa;
    bool nativeBuild = false;
};

/** The metric list of one run, rendered as text and as JSON. */
class Report
{
  public:
    /** A report for this host and build. */
    Report(std::string bench, const Args &args);
    Report(std::string bench, bool quick, Host host);

    void config(const std::string &key, double value);
    void config(const std::string &key, const std::string &value);

    void add(Metric metric);
    /** A value measured once (no spread). */
    void value(const std::string &name, double value,
               const std::string &unit, int n = 1);
    /** `stats` scaled by `scale` (e.g. 100 for a percentage). */
    void stats(const std::string &name, const std::string &unit,
               const Stats &stats, double scale = 1.0);
    /** A timing in milliseconds. */
    void millis(const std::string &name, const Stats &seconds);
    /** `work` per second; the slow quartile becomes q1. */
    void rate(const std::string &name, const std::string &unit,
              double work, const Stats &seconds);

    const std::vector<Metric> &metrics() const { return metrics_; }

    std::string text() const;
    std::string json() const;

    /** Print text(); write json() to the --json path if one was
     *  given. Returns 0, or 1 when the file cannot be written. */
    int emit() const;

  private:
    std::string bench_;
    bool quick_;
    Host host_;
    std::string jsonPath_;
    /** key -> (display text, JSON literal), in insertion order. */
    std::vector<std::pair<std::string, std::pair<std::string, std::string>>>
        config_;
    std::vector<Metric> metrics_;
};

} // namespace bertprof::bench

#endif // BERTPROF_BENCH_HARNESS_H
