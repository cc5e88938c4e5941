/**
 * @file
 * Request-level serving bench: open-loop Poisson traffic against the
 * inference server under a pair of policies, at several offered-load
 * points expressed as multiples of a measured capacity so the sweep
 * is machine-independent. Both policies replay the same requests and
 * the same arrival schedule, round-robin on the bench harness; every
 * metric is the median over reps with its quartiles. Reported per
 * point and policy: throughput, goodput (completed before deadline
 * / s), accepted-request latency percentiles and rejections.
 *
 * The default pair is naive (every request padded to the model
 * maximum, batch size 1: the pad-everything baseline the paper's
 * input-size sweep argues against) vs bucketed+batched (sequence-
 * length buckets from the Fig. 8 ladder plus dynamic max-batch/
 * max-wait coalescing), at multiples of the naive capacity.
 *
 * --overload swaps in a no-shedding baseline (unbounded queue, every
 * accepted request computed even after its deadline) vs the
 * overload-resilient config (admission control + deadline shedding
 * + degradation ladder), up to 4x the bucketed capacity — the
 * numbers that show shedding converting dead work into on-time
 * replies.
 *
 * Usage: bench_serving [--quick] [--overload] [--json <path>]
 *   --quick shrinks the model and request counts for CI smoke runs.
 */

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/bertprof.h"
#include "harness.h"
#include "serve/server.h"
#include "serve/traffic.h"

using namespace bertprof;

namespace {

struct PolicyResult {
    double qps = 0.0;     ///< completed / s
    double goodput = 0.0; ///< completed before deadline / s
    double p50Ms = 0.0;   ///< accepted-request percentiles
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double rejected = 0.0;
};

/** One side of a sweep. */
struct Policy {
    std::string name;
    std::vector<std::int64_t> buckets; ///< bucket boundaries
    ServeOptions options;
};

/** A pair of policies and the traffic they both replay. */
struct Sweep {
    std::string bench;
    Policy base;
    Policy test;
    /** Service time of one batch of calBatch requests at calLen,
     *  run through base's grid: capacity = calBatch / time. */
    int calBatch = 1;
    std::int64_t calLen = 0;
    std::vector<std::int64_t> lengthMix;
    int count = 0;
    std::vector<double> loads; ///< multiples of the capacity
    std::uint64_t seed = 0;    ///< request bodies, lengths, arrivals
    /** Run to completion before each measured replay, then the
     *  stats reset: primes caches and the per-bucket EWMAs. */
    std::vector<InferRequest> warmup;
};

/**
 * Replay `schedule` open-loop against a fresh server; summarize.
 * `warmup` requests (if any) run to completion first with generous
 * deadlines and are excluded from the summary — they prime the
 * engine's caches and the batcher's per-bucket service-time EWMAs so
 * the measured phase sees steady-state admission behavior.
 */
PolicyResult
runLoad(InferenceEngine &engine, const Policy &policy,
        const std::vector<InferRequest> &requests,
        const std::vector<double> &schedule,
        const std::vector<InferRequest> &warmup)
{
    InferenceServer server(engine, BucketSpec(policy.buckets),
                           policy.options);
    if (!warmup.empty()) {
        std::vector<std::future<InferReply>> primers;
        primers.reserve(warmup.size());
        for (InferRequest req : warmup) {
            req.deadline = monoAddMicros(monoNow(), 60'000'000);
            primers.push_back(server.submit(std::move(req)));
        }
        for (auto &f : primers)
            f.wait();
        server.resetStats();
    }
    std::vector<std::future<InferReply>> futures;
    futures.reserve(requests.size());
    const MonoTime start = monoNow();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        // Absolute schedule: submission times never depend on how
        // fast replies come back (open loop).
        std::this_thread::sleep_until(monoAddMicros(
            start, static_cast<std::int64_t>(schedule[i] * 1e6)));
        futures.push_back(server.submit(requests[i]));
    }
    for (auto &f : futures)
        f.wait();
    const double span = secondsBetween(start, monoNow());
    const LatencySummary s = server.latencySummary();
    const ServerStats stats = server.stats();
    PolicyResult r;
    r.qps = static_cast<double>(stats.completed) / span;
    r.goodput = static_cast<double>(stats.completedInDeadline) / span;
    r.p50Ms = s.p50Seconds * 1e3;
    r.p99Ms = s.p99Seconds * 1e3;
    r.p999Ms = s.p999Seconds * 1e3;
    r.rejected = static_cast<double>(stats.rejectedTotal());
    return r;
}

/** `count` requests drawn from the length mix, deterministic in seed. */
std::vector<InferRequest>
makeRequests(const Sweep &sweep, std::int64_t vocab)
{
    Rng body(sweep.seed);
    Rng mix(sweep.seed + 1);
    std::vector<InferRequest> requests;
    for (int i = 0; i < sweep.count; ++i) {
        const std::int64_t len =
            sweep.lengthMix[static_cast<std::size_t>(mix.uniformInt(
                0, static_cast<std::int64_t>(sweep.lengthMix.size()) - 1))];
        requests.push_back(syntheticRequest(
            body, static_cast<std::uint64_t>(i), len, vocab));
    }
    return requests;
}

/** Median service time of one full calibration batch. */
bench::Stats
calibrate(InferenceEngine &engine, const Sweep &sweep, std::int64_t vocab,
          int reps)
{
    Rng rng(11);
    const BucketSpec buckets(sweep.base.buckets);
    Batch batch;
    batch.bucket = buckets.bucketFor(sweep.calLen);
    batch.paddedLen = buckets.boundary(batch.bucket);
    for (int i = 0; i < sweep.calBatch; ++i) {
        PendingRequest p;
        p.request = syntheticRequest(rng, static_cast<std::uint64_t>(i),
                                     sweep.calLen, vocab);
        batch.requests.push_back(std::move(p));
    }
    std::vector<InferReply> replies;
    return bench::runRoundRobin({{[&] { replies.clear(); },
                                  [&] { engine.run(batch, replies); }}},
                                reps)[0];
}

/** A policy that completes every request: no shedding, no
 *  admission, an effectively unbounded queue. */
ServeOptions
noShedding(ServeOptions options)
{
    options.queueCap = 1 << 20;
    options.degrade = false;
    options.admission = false;
    options.shedExpired = false;
    return options;
}

/** Naive pad-to-max batch-1 vs bucketed+batched, at multiples of the
 *  naive capacity. Both complete every request, so the throughput
 *  numbers stay comparable with earlier snapshots; goodput is still
 *  counted against the default deadline. */
Sweep
policySweep(const BertConfig &config, bool quick)
{
    Sweep sweep;
    sweep.bench = "bench_serving";
    ServeOptions naive;
    naive.maxBatch = 1;
    naive.maxWaitUs = 0;
    sweep.base = {"naive", {config.maxPositions}, noShedding(naive)};
    ServeOptions bucketed;
    bucketed.maxBatch = 8;
    bucketed.maxWaitUs = 2000;
    sweep.test = {"bucketed",
                  BucketSpec::defaultSpec(config.maxPositions).boundaries(),
                  noShedding(bucketed)};
    sweep.calBatch = 1;
    sweep.calLen = config.maxPositions;
    // Serving-like length mix: mostly short queries, a long tail —
    // the regime where pad-to-max throws away the most compute.
    sweep.lengthMix = {16, 16, 24, 24, 32, 32, 48, 48, 64, 96, 128, 128};
    if (!quick) {
        sweep.lengthMix.push_back(256);
        sweep.lengthMix.push_back(384);
    }
    sweep.count = quick ? 12 : 48;
    sweep.loads = quick ? std::vector<double>{2.0}
                        : std::vector<double>{0.5, 1.5, 3.0};
    sweep.seed = 1234;
    return sweep;
}

/** No-shedding baseline vs the resilient config at {1x, 2x, 4x} the
 *  bucketed capacity, with a deadline of three batch drains. */
Sweep
overloadSweep(const BertConfig &config, bool quick)
{
    Sweep sweep;
    sweep.bench = "bench_serving_overload";
    const std::vector<std::int64_t> buckets =
        BucketSpec::defaultSpec(config.maxPositions).boundaries();
    ServeOptions resilient;
    resilient.queueCap = 4;
    sweep.base = {"baseline", buckets, noShedding(resilient)};
    sweep.test = {"resilient", buckets, resilient};
    // One full batch at the mix's common bucket — the best case
    // batching can deliver, so "1x" is genuinely saturating.
    sweep.calBatch = 8;
    sweep.calLen = quick ? 32 : 64;
    sweep.lengthMix = {16, 16, 24, 32, 48, 64, 64, 96};
    sweep.count = quick ? 24 : 192;
    sweep.loads = {1.0, 2.0, 4.0};
    sweep.seed = 4321;
    // One full batch per distinct length in the mix, so every bucket
    // the measured traffic can hit has a service-time EWMA before
    // admission decisions start counting.
    Rng warm(0xabc);
    std::uint64_t id = 1'000'000;
    for (const std::int64_t len : {16, 24, 32, 48, 64, 96})
        for (int i = 0; i < 8; ++i)
            sweep.warmup.push_back(
                syntheticRequest(warm, id++, len, config.vocabSize));
    return sweep;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(argc, argv, {"--overload"});
    const bool quick = args.quick;
    const int reps = quick ? 1 : 3;

    // A serving-sized encoder: big enough that padding waste shows,
    // small enough that the sweep finishes on one CPU.
    BertConfig config;
    config.name = quick ? "bert-serve-quick" : "bert-serve-small";
    config.numLayers = 2;
    config.dModel = quick ? 64 : 128;
    config.numHeads = 4;
    config.dFf = 4 * config.dModel;
    config.vocabSize = 1024;
    config.maxPositions = quick ? 128 : 512;
    config.typeVocab = 2;
    config.batch = 1;
    config.seqLen = config.maxPositions;
    config.numClasses = 2;

    NnRuntime rt;
    BertClassifier model(config, &rt);
    Rng init(20260807);
    model.initialize(init);
    model.setTraining(false);
    ClassifierEngine engine(model, /*pad_id=*/3);

    Sweep sweep = args.has("--overload") ? overloadSweep(config, quick)
                                         : policySweep(config, quick);
    const bench::Stats service =
        calibrate(engine, sweep, config.vocabSize, quick ? 3 : 5);
    const double capacity_qps = sweep.calBatch / service.median;
    if (args.has("--overload")) {
        // Deadline: three batch drains — met easily at 1x, hopeless
        // for the tail of an unshed queue at 4x. Keeping it tight
        // means the admission gate's completion estimate also bounds
        // the accepted tail latency, not just the accepted count.
        const std::int64_t deadline_us = std::max<std::int64_t>(
            10000, static_cast<std::int64_t>(3.0 * service.median * 1e6));
        sweep.base.options.defaultDeadlineUs = deadline_us;
        sweep.test.options.defaultDeadlineUs = deadline_us;
    }

    bench::Report report(sweep.bench, args);
    report.config("layers", config.numLayers);
    report.config("d_model", static_cast<double>(config.dModel));
    report.config("max_positions", static_cast<double>(config.maxPositions));
    report.config("count", sweep.count);
    report.config("reps", reps);
    for (const Policy *p : {&sweep.base, &sweep.test}) {
        const ServeOptions &o = p->options;
        report.config(p->name,
                      std::to_string(p->buckets.size()) +
                          " buckets, maxBatch " + std::to_string(o.maxBatch) +
                          ", maxWait " + std::to_string(o.maxWaitUs) +
                          " us, queueCap " + std::to_string(o.queueCap) +
                          (o.shedExpired ? ", admission+shedding+ladder"
                                         : ", no shedding"));
    }
    report.config("deadline_ms", sweep.test.options.defaultDeadlineUs * 1e-3);
    report.rate("capacity_qps", "qps", sweep.calBatch, service);

    const std::vector<InferRequest> requests =
        makeRequests(sweep, config.vocabSize);
    for (const double load : sweep.loads) {
        const std::vector<double> schedule = poissonSchedule(
            load * capacity_qps, sweep.count, sweep.seed + 2);
        std::vector<PolicyResult> runs[2];
        const auto replay = [&](int side) {
            return [&, side] {
                const Policy &p = side == 0 ? sweep.base : sweep.test;
                runs[side].push_back(
                    runLoad(engine, p, requests, schedule, sweep.warmup));
            };
        };
        bench::runRoundRobin({{nullptr, replay(0)}, {nullptr, replay(1)}},
                             reps);

        char label[32];
        std::snprintf(label, sizeof(label), "load%gx.", load);
        report.value(label + std::string("offered_qps"),
                     load * capacity_qps, "qps");
        bench::Stats qps[2], goodput[2];
        for (int side = 0; side < 2; ++side) {
            // runs[side][0] is the harness's warm-up rep.
            const std::vector<PolicyResult> kept(runs[side].begin() + 1,
                                                 runs[side].end());
            const auto field = [&](double PolicyResult::*f) {
                std::vector<double> v;
                for (const PolicyResult &r : kept)
                    v.push_back(r.*f);
                return bench::summarize(v);
            };
            qps[side] = field(&PolicyResult::qps);
            goodput[side] = field(&PolicyResult::goodput);
            const std::string prefix =
                label + (side == 0 ? sweep.base.name : sweep.test.name) + ".";
            report.stats(prefix + "qps", "qps", qps[side]);
            report.stats(prefix + "goodput", "qps", goodput[side]);
            report.stats(prefix + "p50_ms", "ms", field(&PolicyResult::p50Ms));
            report.stats(prefix + "p99_ms", "ms", field(&PolicyResult::p99Ms));
            report.stats(prefix + "p999_ms", "ms",
                         field(&PolicyResult::p999Ms));
            report.stats(prefix + "rejected", "count",
                         field(&PolicyResult::rejected));
        }
        report.stats(label + std::string("qps_ratio"), "x",
                     bench::pairedRatio(qps[1], qps[0]));
        report.stats(label + std::string("goodput_ratio"), "x",
                     bench::pairedRatio(goodput[1], goodput[0]));
    }
    return report.emit();
}
