/**
 * @file
 * The serving workload: open-loop Poisson classification traffic
 * against InferenceServer + ClassifierEngine at fixed absolute rates,
 * timed from each request's due time and accounted from the futures
 * the benchmark holds.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <thread>

#include "bench.h"
#include "runtime/config.h"
#include "serve/server.h"
#include "serve/traffic.h"

namespace perfbench {

using namespace bertprof;

namespace {

/** Short-heavy real-length mix with a tail to 384. */
const std::vector<std::int64_t> kLengthMix = {16, 16, 24, 24, 32,  32,  48,
                                              48, 64, 96, 128, 128, 256, 384};

/**
 * The rate ladder (requests/s), fixed: calibrating it per run would
 * make the offered load depend on the code under test. `low`, `knee`
 * and `over` are rungs; `share` is the rung's part of the run time.
 * `low` gets the most, because the gated CPU cost comes from it (see
 * NOTES.md); 120 and 160 only refine serve_max_rate_qps.
 */
struct Rung {
    const char *label;
    double qps;
    double share;
};
const Rung kLadder[] = {
    {"low", 30.0, 0.45},  {"knee", 90.0, 0.20}, {"", 120.0, 0.05},
    {"", 160.0, 0.05},    {"over", 260.0, 0.25},
};

/** The latency limit: ServeOptions' default request deadline. */
constexpr double kLimitS = 0.100;
/** Share of requests that must meet the limit at a passing rung. */
constexpr double kMeetShare = 0.99;
/** Latency a refused request counts as in percentiles (a miss). */
constexpr double kRefusedLatencyS = 2.0 * kLimitS;
/** Seconds of each rung's own schedule that warm its server. */
constexpr double kWarmupS = 0.5;
constexpr std::int64_t kPadId = 3;

BertConfig
modelConfig()
{
    BertConfig c;
    c.name = "bert-serve-small";
    c.numLayers = 2;
    c.dModel = 128;
    c.numHeads = 4;
    c.dFf = 512;
    c.vocabSize = 1024;
    c.maxPositions = 512;
    c.typeVocab = 2;
    c.batch = 1;
    c.seqLen = c.maxPositions;
    c.numClasses = 2;
    return c;
}

/** One run()'s timing, recorded by TimedEngine. */
struct BatchRecord {
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t size = 0;
    std::int64_t paddedLen = 0;
    std::int64_t realTokens = 0;
};

/**
 * Decorator that times each run() of the engine it wraps. Only the
 * server's executor thread calls run(); records are read after the
 * server has shut down.
 */
class TimedEngine : public InferenceEngine
{
  public:
    explicit TimedEngine(InferenceEngine &inner) : inner_(inner) {}

    std::int64_t maxPositions() const override
    {
        return inner_.maxPositions();
    }

    void
    run(const Batch &batch, std::vector<InferReply> &replies) override
    {
        BatchRecord rec;
        rec.size = static_cast<std::int64_t>(batch.requests.size());
        rec.paddedLen = batch.paddedLen;
        for (const PendingRequest &p : batch.requests)
            rec.realTokens +=
                static_cast<std::int64_t>(p.request.tokenIds.size());
        rec.startNs = nowNs();
        inner_.run(batch, replies);
        rec.endNs = nowNs();
        records.push_back(std::move(rec));
    }

    std::vector<BatchRecord> records;

  private:
    InferenceEngine &inner_;
};

/** The served model and its engine, built from the workload seed. */
struct Model {
    explicit Model(std::uint64_t seed)
        : config(modelConfig()), model(config, &rt),
          engine(evalReady(model, seed), kPadId)
    {
    }

    /** Initialize from the seed and switch to eval mode, which the
     *  engine requires at construction. */
    static BertClassifier &
    evalReady(BertClassifier &m, std::uint64_t seed)
    {
        Rng init(seed * 2 + 5);
        m.initialize(init);
        m.setTraining(false);
        return m;
    }

    BertConfig config;
    NnRuntime rt;
    BertClassifier model;
    ClassifierEngine engine;
};

/** A fixed set of batches across the bucket ladder. */
std::vector<Batch>
replayBatches(const BucketSpec &buckets, std::int64_t vocab, Rng &rng)
{
    const std::pair<std::int64_t, int> shapes[] = {
        {16, 8}, {32, 8}, {64, 4}, {128, 2}, {256, 1}, {384, 1}};
    std::vector<Batch> out;
    std::uint64_t id = 0;
    for (const auto &[len, count] : shapes) {
        Batch b;
        b.bucket = buckets.bucketFor(len);
        b.paddedLen = buckets.boundary(b.bucket);
        for (int i = 0; i < count; ++i) {
            PendingRequest p;
            p.request = syntheticRequest(rng, id++, len, vocab);
            b.requests.push_back(std::move(p));
        }
        out.push_back(std::move(b));
    }
    return out;
}

/**
 * The largest batch the server can form: maxBatch requests of the
 * longest length in the mix. Running it in set-up puts the memory
 * high-water mark there, so peak_rss_mb does not depend on which
 * batches the load happened to form.
 */
Batch
largestBatch(const BucketSpec &buckets, std::int64_t vocab, Rng &rng)
{
    const std::int64_t len =
        *std::max_element(kLengthMix.begin(), kLengthMix.end());
    Batch b;
    b.bucket = buckets.bucketFor(len);
    b.paddedLen = buckets.boundary(b.bucket);
    for (int i = 0; i < ServeOptions().resolve().maxBatch; ++i) {
        PendingRequest p;
        p.request = syntheticRequest(rng, static_cast<std::uint64_t>(i), len,
                                     vocab);
        b.requests.push_back(std::move(p));
    }
    return b;
}

double
runBatches(InferenceEngine &engine, const std::vector<Batch> &batches)
{
    std::vector<InferReply> replies;
    const std::int64_t t0 = nowNs();
    for (const Batch &b : batches) {
        replies.clear();
        engine.run(b, replies);
    }
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Client-side outcome of one measured request. */
struct Outcome {
    std::uint64_t id = 0;
    std::int64_t dueNs = 0; ///< when it was due (steady ns)
    double lateS = 0.0;     ///< due -> submit
    double latencyS = 0.0;  ///< due -> reply (refused: kRefusedLatencyS)
    bool ok = false;
    bool inLimit = false;
    RejectReason reject = RejectReason::None;
    double queueS = 0.0;
    double computeS = 0.0;
};

/** One rung, accumulated over the ladder's passes. */
struct RungResult {
    Rung rung;
    std::vector<Outcome> out; ///< measured requests, in due order
    std::vector<std::size_t> passEnds; ///< end of each pass in `out`
    double spanS = 0.0;       ///< first measured due -> last reply
    double wallS = 0.0;       ///< whole rung, warm-up included
    double cpuS = 0.0;        ///< process CPU time, measured requests
    std::int64_t serverResolved = 0;
    std::vector<InferRequest> sampleReqs;
    std::vector<InferReply> sampleReplies;
};

double
inLimitShare(const std::vector<Outcome> &v, std::size_t from, std::size_t to)
{
    if (from >= to)
        return 1.0;
    std::size_t met = 0;
    for (std::size_t i = from; i < to; ++i)
        met += v[i].inLimit ? 1 : 0;
    return static_cast<double>(met) / static_cast<double>(to - from);
}

/**
 * A rung's score: the in-limit share over all its measured requests,
 * or over the last quarter of each pass pooled, whichever is lower —
 * a backlog that grows through the passes shows in their last
 * quarters.
 */
double
rungScore(const RungResult &r)
{
    std::size_t met = 0, count = 0, begin = 0;
    for (const std::size_t end : r.passEnds) {
        for (std::size_t i = end - (end - begin) / 4; i < end; ++i, ++count)
            met += r.out[i].inLimit ? 1 : 0;
        begin = end;
    }
    const double last = count ? static_cast<double>(met) /
                                    static_cast<double>(count)
                              : 1.0;
    return std::min(inLimitShare(r.out, 0, r.out.size()), last);
}

/**
 * Replay one pass of a rung open loop into `r`: a fresh server, a
 * warm-up prefix of the rung's own schedule at its own rate, then
 * the measured requests.
 */
void
runRung(InferenceEngine &engine, const BucketSpec &buckets, double seconds,
        std::uint64_t seed, std::int64_t vocab, std::uint64_t &next_id,
        RungResult &r)
{
    const Rung &rung = r.rung;
    const int warm = std::max(8, static_cast<int>(rung.qps * kWarmupS));
    const int measured =
        std::max(20, static_cast<int>(rung.qps * seconds * rung.share));
    const int total = warm + measured;

    // Each run of kLengthMix.size() requests holds the whole mix in a
    // seeded order, so the seed moves order and content, not the
    // share of long requests.
    Rng body(seed * 31 + static_cast<std::uint64_t>(rung.qps));
    std::vector<std::int64_t> lengths;
    while (lengths.size() < static_cast<std::size_t>(total)) {
        std::vector<std::int64_t> block = kLengthMix;
        for (std::size_t i = block.size() - 1; i > 0; --i)
            std::swap(block[i], block[static_cast<std::size_t>(body.uniformInt(
                                    0, static_cast<std::int64_t>(i)))]);
        lengths.insert(lengths.end(), block.begin(), block.end());
    }
    std::vector<InferRequest> requests;
    requests.reserve(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i)
        requests.push_back(syntheticRequest(
            body, next_id++, lengths[static_cast<std::size_t>(i)], vocab));

    // Poisson arrivals conditioned on the rung's count: scaling the
    // gaps so arrival total+1 lands at its expected time keeps the
    // arrival pattern random but the offered rate exact.
    std::vector<double> due =
        poissonSchedule(rung.qps, total + 1, seed * 131 + 7);
    const double scale = (total + 1) / rung.qps / due.back();
    due.pop_back();
    for (double &t : due)
        t *= scale;

    InferenceServer server(engine, buckets, ServeOptions());
    std::vector<std::future<InferReply>> futures;
    std::vector<MonoTime> submitted;
    futures.reserve(requests.size());
    // Sample every k-th measured request for the output check.
    const int sample_every = std::max(1, measured / 3);
    const MonoTime start = monoAddMicros(monoNow(), 1000);
    MonoTime reset_at = start;
    double cpu0 = 0.0;
    const std::int64_t start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count();
    for (int i = 0; i < total; ++i) {
        const MonoTime due_at = monoAddMicros(
            start, static_cast<std::int64_t>(due[static_cast<std::size_t>(i)] *
                                             1e6));
        std::this_thread::sleep_until(due_at);
        if (i == warm) {
            server.resetStats();
            reset_at = monoNow();
            cpu0 = processCpuSeconds();
        }
        if (i >= warm && (i - warm) % sample_every == 0)
            r.sampleReqs.push_back(requests[static_cast<std::size_t>(i)]);
        submitted.push_back(monoNow());
        futures.push_back(
            server.submit(std::move(requests[static_cast<std::size_t>(i)])));
    }
    double last_reply = 0.0;
    // Warm-up replies that completed after resetStats(): stats() counts
    // them, the client does not measure them.
    std::int64_t warm_after_reset = 0;
    for (int i = 0; i < total; ++i) {
        const InferReply reply = futures[static_cast<std::size_t>(i)].get();
        if (i < warm) {
            const MonoTime done = monoAddMicros(
                submitted[static_cast<std::size_t>(i)],
                static_cast<std::int64_t>(reply.totalSeconds * 1e6));
            warm_after_reset += reply.ok && done > reset_at ? 1 : 0;
            continue;
        }
        const double due_s = due[static_cast<std::size_t>(i)];
        const double submit_s =
            secondsBetween(start, submitted[static_cast<std::size_t>(i)]);
        Outcome o;
        o.id = reply.id;
        o.dueNs = start_ns + static_cast<std::int64_t>(due_s * 1e9);
        o.lateS = submit_s - due_s;
        o.ok = reply.ok;
        o.reject = reply.reject;
        o.queueS = reply.queueSeconds;
        o.computeS = reply.computeSeconds;
        if (reply.ok) {
            o.latencyS = o.lateS + reply.totalSeconds;
            o.inLimit = o.latencyS <= kLimitS;
            last_reply = std::max(last_reply, submit_s + reply.totalSeconds);
        } else {
            o.latencyS = kRefusedLatencyS;
        }
        if ((i - warm) % sample_every == 0)
            r.sampleReplies.push_back(reply);
        r.out.push_back(o);
    }
    r.cpuS += processCpuSeconds() - cpu0;
    r.passEnds.push_back(r.out.size());
    r.wallS += secondsBetween(start, monoNow());
    const ServerStats stats = server.stats();
    server.shutdown();
    r.serverResolved +=
        stats.completed + stats.rejectedTotal() - warm_after_reset;
    r.spanS += std::max(last_reply, due.back()) -
               due[static_cast<std::size_t>(warm)];
}

/**
 * The highest ladder rate at which at least kMeetShare of the requests
 * sent meet the limit, with no growing backlog (rungScore).
 */
double
maxRate(const std::vector<RungResult> &rungs)
{
    double best = 0.0;
    for (const RungResult &r : rungs) {
        if (rungScore(r) < kMeetShare)
            break;
        best = r.rung.qps;
    }
    return best;
}

std::vector<double>
latencies(const RungResult &r, bool accepted_only)
{
    std::vector<double> v;
    for (const Outcome &o : r.out)
        if (o.ok || !accepted_only)
            v.push_back(o.latencyS);
    return v;
}

/**
 * Latency metrics of one labelled rung. Below capacity (`low`, `knee`)
 * a refused request counts as a miss at kRefusedLatencyS. Past
 * capacity (`over`) they cover accepted requests only: there the
 * shedding bounds them by the limit, and refusals are counted by the
 * goodput and the completion rate instead.
 */
void
addRatePoint(Report &report, const RungResult &r)
{
    const std::string tag = r.rung.label;
    const bool over = tag == "over";
    const std::vector<double> lat = latencies(r, over);
    const auto n = static_cast<std::int64_t>(lat.size());
    const char *which = over ? ", accepted only" : ", refused = miss";
    char note[96];
    std::snprintf(note, sizeof(note), "%.0f qps, from due time%s",
                  r.rung.qps, which);
    report.add("serve_p50_ms." + tag, median(lat) * 1e3, "ms", n, note);
    const Tail t = tail(lat);
    std::snprintf(note, sizeof(note), "p%.1f at %.0f qps%s", t.percentile,
                  r.rung.qps, which);
    report.add("serve_tail_ms." + tag, t.value * 1e3, "ms", n, note);
    if (over) {
        double met = 0, done = 0;
        for (const Outcome &o : r.out) {
            met += o.inLimit ? 1 : 0;
            done += o.ok ? 1 : 0;
        }
        const auto sent = static_cast<std::int64_t>(r.out.size());
        report.add("serve_goodput_qps.over", met / r.spanS, "1/s", sent,
                   "replies within the limit per second");
        report.add("serve_completed_qps.over", done / r.spanS, "1/s", sent,
                   "replies per second with the executor saturated");
    }
}

/** Check sampled replies against a solo forward of the same request. */
void
checkReplies(Model &m, const std::vector<RungResult> &rungs, Report &report)
{
    int checked = 0;
    for (const RungResult &r : rungs) {
        for (std::size_t i = 0; i < r.sampleReqs.size(); ++i) {
            const InferRequest &req = r.sampleReqs[i];
            const InferReply &rep = r.sampleReplies[i];
            if (!rep.ok)
                continue;
            const auto len = static_cast<std::int64_t>(req.tokenIds.size());
            const Tensor solo = m.model.forwardLogitsEval(
                req.tokenIds, req.segmentIds, 1, len, {len});
            const auto cols = m.config.numClasses;
            bool good = rep.rows == 1 && rep.cols == cols &&
                        static_cast<std::int64_t>(rep.logits.size()) == cols &&
                        solo.numel() == cols;
            for (std::int64_t c = 0; good && c < cols; ++c)
                good = std::isfinite(rep.logits[static_cast<std::size_t>(c)]);
            const std::size_t bytes =
                sizeof(float) * static_cast<std::size_t>(cols);
            good = good &&
                   std::memcmp(rep.logits.data(), solo.data(), bytes) == 0;
            if (!good)
                report.fail("reply " + std::to_string(rep.id) +
                            " differs from a solo forward");
            ++checked;
        }
    }
    if (checked == 0)
        report.fail("no accepted reply was sampled");
    report.add("checked_replies", checked, "count", checked,
               "bitwise vs solo forwardLogitsEval");
}

/** Client-side accounting over every measured request. */
void
addOutcomes(Report &report, const std::vector<RungResult> &rungs)
{
    std::int64_t sent = 0, ok = 0, expired = 0, full = 0, other = 0;
    std::int64_t server = 0;
    std::vector<double> late;
    for (const RungResult &r : rungs) {
        for (const Outcome &o : r.out) {
            ++sent;
            late.push_back(o.lateS);
            if (o.ok)
                ++ok;
            else if (o.reject == RejectReason::Expired)
                ++expired;
            else if (o.reject == RejectReason::QueueFull)
                ++full;
            else
                ++other;
        }
        server += r.serverResolved;
    }
    // Refusals under load are measured outcomes; anything else that
    // leaves a request without logits is a failed operation.
    report.attempted = sent;
    report.failed = other;
    if (other > 0)
        report.fail(std::to_string(other) +
                    " requests refused as shutdown or overlong");
    const auto share = [&](std::int64_t k) {
        return static_cast<double>(k) / static_cast<double>(sent);
    };
    report.add("fail_share", share(sent - ok), "share", sent,
               "refused / requests sent, all rungs");
    report.add("serve.refused_share.expired", share(expired), "share", sent);
    report.add("serve.refused_share.queue_full", share(full), "share", sent);
    report.add("serve.stats_drift", share(std::llabs(server - sent)), "share",
               sent, "|stats() after resetStats() - client count| / sent");
    report.add("gen.late_ms_p99", quantile(late, 0.99) * 1e3, "ms", sent,
               "how late the generator submitted");
}

/**
 * Run the ladder in kPasses passes, alternately up and down, each
 * with 1/kPasses of every rung's requests: a stretch of host noise,
 * or an admission lockout that lasts as long as its server, then
 * lands on parts of several rungs instead of all of one.
 */
std::vector<RungResult>
runLadder(InferenceEngine &engine, const Model &m, const RunArgs &args)
{
    constexpr int kPasses = 4;
    const BucketSpec buckets = BucketSpec::defaultSpec(m.config.maxPositions);
    const std::size_t n = std::size(kLadder);
    std::vector<RungResult> rungs(n);
    for (std::size_t i = 0; i < n; ++i)
        rungs[i].rung = kLadder[i];
    std::uint64_t next_id = 0;
    for (int pass = 0; pass < kPasses; ++pass)
        for (std::size_t k = 0; k < n; ++k)
            runRung(engine, buckets, args.seconds / kPasses,
                    args.seed * kPasses + static_cast<std::uint64_t>(pass),
                    m.config.vocabSize, next_id,
                    rungs[pass % 2 == 0 ? k : n - 1 - k]);
    std::printf("rung qps  measured  in-limit     score  p50 ms  "
                "expired  queue-full  cpu ms/req\n");
    for (const RungResult &r : rungs) {
        int expired = 0, full = 0;
        for (const Outcome &o : r.out) {
            expired += o.reject == RejectReason::Expired ? 1 : 0;
            full += o.reject == RejectReason::QueueFull ? 1 : 0;
        }
        std::printf("%8.0f  %8zu  %8.4f  %8.4f  %6.1f  %7d  %10d  %.4f\n",
                    r.rung.qps, r.out.size(),
                    inLimitShare(r.out, 0, r.out.size()), rungScore(r),
                    median(latencies(r, false)) * 1e3, expired, full,
                    r.cpuS / static_cast<double>(r.out.size()) * 1e3);
    }
    return rungs;
}

const RungResult &
rungLabelled(const std::vector<RungResult> &rungs, const char *label)
{
    for (const RungResult &r : rungs)
        if (std::strcmp(r.rung.label, label) == 0)
            return r;
    return rungs.front();
}

/**
 * Build the model K times (keeping the last); setup_s is the CPU time
 * of the fastest set-up, which host noise can only lengthen.
 */
std::unique_ptr<Model>
setUp(const RunArgs &args, Report &report, std::vector<Batch> &replay)
{
    constexpr int kReps = 9;
    std::vector<double> times, cpu;
    std::unique_ptr<Model> m;
    for (int rep = 0; rep < kReps; ++rep) {
        m.reset();
        const double c0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        m = std::make_unique<Model>(args.seed);
        const BucketSpec buckets =
            BucketSpec::defaultSpec(m->config.maxPositions);
        Rng rng(args.seed * 17 + 3);
        replay = replayBatches(buckets, m->config.vocabSize, rng);
        runBatches(m->engine, replay);
        std::vector<Batch> largest;
        largest.push_back(largestBatch(buckets, m->config.vocabSize, rng));
        runBatches(m->engine, largest);
        times.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        cpu.push_back(processCpuSeconds() - c0);
    }
    report.add("setup_s", *std::min_element(cpu.begin(), cpu.end()), "s",
               kReps,
               "process CPU time of build + init + one warm pass over the "
               "bucket ladder and the largest batch, fastest of set-ups");
    report.add("setup_wall_s", *std::min_element(times.begin(), times.end()),
               "s", kReps, "wall time, fastest of set-ups");
    return m;
}

void
measured(const RunArgs &args, Report &report)
{
    std::vector<Batch> replay;
    std::unique_ptr<Model> m = setUp(args, report, replay);
    const std::vector<RungResult> rungs = runLadder(m->engine, *m, args);

    for (const char *label : {"low", "knee", "over"})
        addRatePoint(report, rungLabelled(rungs, label));
    report.add("serve_max_rate_qps", maxRate(rungs), "1/s",
               static_cast<std::int64_t>(std::size(kLadder)),
               "highest ladder rate with >=99% of requests in 100 ms");
    // CPU cost of the traffic well below capacity, where the server
    // takes in the whole offered load; nearer capacity, the cost per
    // request falls with the share refused.
    const RungResult &low = rungLabelled(rungs, "low");
    const auto low_sent = static_cast<std::int64_t>(low.out.size());
    report.add("cpu_ms_per_item",
               low.cpuS / static_cast<double>(low_sent) * 1e3, "ms", low_sent,
               "process CPU time per request sent at the low rung");
    addOutcomes(report, rungs);
    checkReplies(*m, rungs, report);
    report.add("peak_rss_mb", peakRssMb(), "MB", 1);
}

void
traced(const RunArgs &args, Report &report)
{
    std::vector<Batch> replay;
    std::unique_ptr<Model> m = setUp(args, report, replay);

    // Tracing overhead and thread scaling on a fixed batch replay:
    // plain engine vs the timing decorator with the profiler attached.
    Profiler profiler;
    TimedEngine timed(m->engine);
    std::vector<double> overhead_pct, plain_s;
    for (int rep = 0; rep < 9; ++rep) {
        m->rt.profiler = nullptr;
        const double plain = runBatches(m->engine, replay);
        m->rt.profiler = &profiler;
        const double traced_s = runBatches(timed, replay);
        plain_s.push_back(plain);
        overhead_pct.push_back((traced_s / plain - 1.0) * 100.0);
    }
    m->rt.profiler = nullptr;
    std::vector<double> serial_s;
    setNumThreads(1);
    for (int rep = 0; rep < 3; ++rep)
        serial_s.push_back(runBatches(m->engine, replay));
    setNumThreads(0);
    report.add("runtime.speedup_vs_1t", median(serial_s) / median(plain_s),
               "x", 3, "fixed batch replay, 1 thread / default threads");
    report.add("trace.overhead_pct", median(overhead_pct), "%", 9,
               "decorator + profiler vs plain engine, batch replay");
    report.add("trace.overhead_iqr_pct", iqr(overhead_pct), "%", 9);

    profiler.clear();
    timed.records.clear();
    m->rt.profiler = &profiler;
    const std::vector<RungResult> rungs = runLadder(timed, *m, args);
    m->rt.profiler = nullptr;
    addOutcomes(report, rungs);
    checkReplies(*m, rungs, report);

    report.addKernels(profiler, static_cast<double>(timed.records.size()),
                      "batch");

    SpanLog log;
    std::vector<double> eval_s;
    double busy = 0, padded = 0, real = 0, members = 0, wall = 0;
    for (const BatchRecord &b : timed.records) {
        const double d = static_cast<double>(b.endNs - b.startNs) * 1e-9;
        eval_s.push_back(d);
        busy += d;
        padded += static_cast<double>(b.size * b.paddedLen);
        real += static_cast<double>(b.realTokens);
        members += static_cast<double>(b.size);
        log.add("nn.eval_batch", static_cast<std::int64_t>(eval_s.size()),
                b.startNs, b.endNs);
    }
    std::vector<double> queue_s;
    for (const RungResult &r : rungs) {
        wall += r.wallS;
        for (const Outcome &o : r.out) {
            const auto key = static_cast<std::int64_t>(o.id);
            const std::int64_t due_ns = o.dueNs;
            const std::int64_t submit_ns =
                due_ns + static_cast<std::int64_t>(o.lateS * 1e9);
            // A refused reply carries no timing: its span ends at submit.
            const std::int64_t end_ns =
                o.ok ? due_ns + static_cast<std::int64_t>(o.latencyS * 1e9)
                     : submit_ns;
            const int root = log.add(o.ok ? "serve.request" : "serve.refused",
                                     key, due_ns, end_ns);
            log.add("gen.due_to_submit", key, due_ns, submit_ns, root);
            if (!o.ok)
                continue;
            queue_s.push_back(o.queueS);
            const std::int64_t run_ns =
                submit_ns + static_cast<std::int64_t>(o.queueS * 1e9);
            const std::int64_t done_ns =
                run_ns + static_cast<std::int64_t>(o.computeS * 1e9);
            log.add("serve.queue", key, submit_ns, run_ns, root);
            log.add("serve.compute", key, run_ns, done_ns, root);
            log.add("serve.reply", key, done_ns, end_ns, root);
        }
    }
    const auto nb = static_cast<std::int64_t>(eval_s.size());
    report.add("nn.eval_ms_per_batch", median(eval_s) * 1e3, "ms", nb,
               "TimedEngine around ClassifierEngine::run");
    report.add("nn.eval_us_per_padded_token",
               padded > 0 ? busy / padded * 1e6 : 0.0, "us", nb);
    const auto nq = static_cast<std::int64_t>(queue_s.size());
    report.add("serve.queue_ms_p50", median(queue_s) * 1e3, "ms", nq);
    const Tail qt = tail(queue_s);
    char note[48];
    std::snprintf(note, sizeof(note), "p%.1f", qt.percentile);
    report.add("serve.queue_ms_tail", qt.value * 1e3, "ms", nq, note);
    report.add("serve.batch_size_mean", nb ? members / static_cast<double>(nb)
                                           : 0.0,
               "count", nb);
    report.add("serve.pad_efficiency", padded > 0 ? real / padded : 0.0,
               "share", nb, "real tokens / padded tokens");
    report.add("serve.executor_busy_share", wall > 0 ? busy / wall : 0.0,
               "share", nb, "engine time / rung time (warm-up included)");

    if (!args.traceOut.empty() && !log.write(args.traceOut))
        report.fail("cannot write spans to " + args.traceOut);
    report.add("peak_rss_mb", peakRssMb(), "MB", 1);
}

} // namespace

void
runServing(const RunArgs &args, Report &report)
{
    const ResolvedServePolicy p = ServeOptions().resolve();
    std::printf("model bert-serve-small: 2 layers, d_model 128, max "
                "positions 512; serve policy: max batch %d, max wait %lld "
                "us, queue cap %d, %s, degrade %s, admission %s, shed %s, "
                "deadline %.0f ms\n",
                p.maxBatch, static_cast<long long>(p.maxWaitUs), p.queueCap,
                p.queuePolicy == QueuePolicy::DropOldest ? "drop-oldest"
                                                         : "reject-new",
                p.degrade ? "on" : "off", p.admission ? "on" : "off",
                p.shedExpired ? "on" : "off", kLimitS * 1e3);
    if (args.trace)
        traced(args, report);
    else
        measured(args, report);
}

} // namespace perfbench
