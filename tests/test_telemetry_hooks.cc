/**
 * @file
 * The trace as the one telemetry sink: every signal the trainer, the
 * serving runtime and the io retry loop report reaches the recorded
 * container, and the replayed totals equal the live accounting they
 * mirror — ServerStats for serving, the step results for training,
 * the retry count for io. Every rejection here is deterministic
 * (overlong, shutdown, dead on arrival, a full queue), so no
 * assertion depends on wall-clock luck.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "test_helpers.h"

namespace bertprof {
namespace {

using ::bertprof::testing::tinyBertConfig;

constexpr std::int64_t kPadId = 3;

/** RAII: stop the process-wide recorder on scope exit. */
struct RecorderGuard {
    ~RecorderGuard() { (void)TraceRecorder::instance().stop(); }
};

/** RAII: disarm the process-wide fault injector on scope exit. */
struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::instance().reset(); }
};

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "bp_hooks_" + name;
    std::filesystem::remove_all(path);
    return path;
}

void
startRecording(const std::string &path)
{
    RecorderOptions options;
    options.path = path;
    ASSERT_TRUE(TraceRecorder::instance().start(options).ok());
}

/** Stop the recorder and replay what it wrote. */
ReplaySummary
stopAndReplay(const std::string &path)
{
    EXPECT_TRUE(TraceRecorder::instance().stop().ok());
    EXPECT_EQ(TraceRecorder::instance().eventsDropped(), 0);
    ReplaySummary summary;
    EXPECT_TRUE(replayTrace(path, summary).ok());
    EXPECT_FALSE(summary.truncatedTail);
    return summary;
}

/** Trace total of one counter; 0 when it was never emitted. */
std::int64_t
counterTotal(const ReplaySummary &summary, const std::string &name)
{
    const auto it = summary.counterTotals.find(name);
    return it == summary.counterTotals.end() ? 0 : it->second;
}

std::int64_t
servedInBatches(const ReplaySummary &summary)
{
    std::int64_t total = 0;
    for (const ReplayServeBatch &batch : summary.serveBatches)
        total += batch.batchSize;
    return total;
}

/** A tiny classifier behind a ClassifierEngine, ready to serve. */
struct ServeFixture {
    BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf{config, &rt};
    std::unique_ptr<ClassifierEngine> engine; ///< needs clf in eval

    explicit ServeFixture(std::uint64_t seed)
    {
        Rng init(seed);
        clf.initialize(init);
        clf.setTraining(false);
        engine = std::make_unique<ClassifierEngine>(clf, kPadId);
    }
};

/** Each `serve.rejected.<reason>` trace total equals its stats row. */
void
expectRejectionsMatch(const ReplaySummary &summary,
                      const ServerStats &stats)
{
    EXPECT_EQ(counterTotal(summary, "serve.rejected.expired"),
              stats.rejectedExpired);
    EXPECT_EQ(counterTotal(summary, "serve.rejected.queue-full"),
              stats.rejectedQueueFull);
    EXPECT_EQ(counterTotal(summary, "serve.rejected.shutdown"),
              stats.rejectedShutdown);
    EXPECT_EQ(counterTotal(summary, "serve.rejected.overlong"),
              stats.rejectedOverlong);
}

// --------------------------------------------------------------------
// io
// --------------------------------------------------------------------

TEST(TelemetryHooks, IoRetriesReachTheTrace)
{
    RecorderGuard guard;
    const std::string path = tempPath("io_retry.bptr");
    startRecording(path);
    RetryPolicy policy;
    policy.attempts = 4;
    policy.backoffMs = 0.01;
    int calls = 0;
    const IoStatus s = withRetries(policy, [&]() {
        ++calls;
        if (calls < 3)
            return IoStatus::failure(IoError::Transient, "flaky");
        return IoStatus::success();
    });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(calls, 3);
    const ReplaySummary summary = stopAndReplay(path);
    EXPECT_EQ(counterTotal(summary, "io.retry.attempts"), 2);
}

TEST(TelemetryHooks, NothingReachesTheTraceWhileStopped)
{
    RecorderGuard guard;
    ServeFixture fx(11);
    {
        // Recorder off: retries and served requests leave no trace.
        InferenceServer server(*fx.engine, BucketSpec({8, 16}));
        Rng body(12);
        EXPECT_TRUE(server
                        .submit(syntheticRequest(body, 1, 6,
                                                 fx.config.vocabSize))
                        .get()
                        .ok);
        RetryPolicy policy;
        policy.attempts = 2;
        policy.backoffMs = 0.01;
        (void)withRetries(policy, [] {
            return IoStatus::failure(IoError::Transient, "flaky");
        });
    }
    const std::string path = tempPath("stopped.bptr");
    startRecording(path);
    const ReplaySummary summary = stopAndReplay(path);
    EXPECT_EQ(summary.eventCount, 0);
    EXPECT_TRUE(summary.counterTotals.empty());
    EXPECT_TRUE(summary.serveBatches.empty());
}

// --------------------------------------------------------------------
// Serving: the trace conserves the server's counts
// --------------------------------------------------------------------

TEST(TelemetryHooks, ServeTraceConservesCounts)
{
    RecorderGuard guard;
    const std::string path = tempPath("serve_conserve.bptr");
    ServeFixture fx(21);
    startRecording(path);

    ServeOptions options;
    options.defaultDeadlineUs = 60000000; // no request can expire
    InferenceServer server(*fx.engine, BucketSpec({8, 16}), options);
    Rng body(22);
    std::vector<std::future<InferReply>> futures;
    // Every third request is too long for the top bucket (Overlong);
    // the rest are submitted without waiting, so batches coalesce.
    for (std::uint64_t id = 0; id < 12; ++id) {
        const std::int64_t len = id % 3 == 0 ? 17 : 6;
        futures.push_back(server.submit(
            syntheticRequest(body, id, len, fx.config.vocabSize)));
    }
    server.shutdown(); // drains the queue, then refuses (Shutdown)
    for (std::uint64_t id = 12; id < 15; ++id)
        futures.push_back(server.submit(
            syntheticRequest(body, id, 6, fx.config.vocabSize)));
    for (auto &f : futures)
        f.get();
    const ServerStats stats = server.stats();
    const ReplaySummary summary = stopAndReplay(path);

    EXPECT_EQ(stats.completed, 8);
    EXPECT_EQ(stats.rejectedOverlong, 4);
    EXPECT_EQ(stats.rejectedShutdown, 3);
    EXPECT_EQ(servedInBatches(summary), stats.completed);
    EXPECT_EQ(counterTotal(summary, "serve.completed.in_deadline"),
              stats.completedInDeadline);
    EXPECT_EQ(counterTotal(summary, "serve.completed.late"),
              stats.completed - stats.completedInDeadline);
    expectRejectionsMatch(summary, stats);
}

TEST(TelemetryHooks, DeadOnArrivalRejectionsReachTheTrace)
{
    RecorderGuard guard;
    const std::string path = tempPath("serve_expired.bptr");
    ServeFixture fx(31);
    startRecording(path);

    ServeOptions options;
    options.defaultDeadlineUs = 60000000;
    InferenceServer server(*fx.engine, BucketSpec({8, 16}), options);
    Rng body(32);
    for (std::uint64_t id = 0; id < 6; ++id) {
        InferRequest req =
            syntheticRequest(body, id, 6, fx.config.vocabSize);
        if (id % 2 == 0)
            req.deadline = monoAddMicros(monoNow(), -1000);
        EXPECT_EQ(server.submit(std::move(req)).get().ok, id % 2 != 0);
    }
    server.shutdown();
    const ServerStats stats = server.stats();
    const ReplaySummary summary = stopAndReplay(path);

    EXPECT_EQ(stats.rejectedExpired, 3);
    EXPECT_EQ(stats.completed, 3);
    EXPECT_EQ(servedInBatches(summary), stats.completed);
    expectRejectionsMatch(summary, stats);
}

TEST(TelemetryHooks, LateCompletionsReachTheTrace)
{
    RecorderGuard guard;
    const std::string path = tempPath("serve_late.bptr");
    ServeFixture fx(41);
    startRecording(path);

    // With shedding and admission off (the overload bench's baseline)
    // a request whose deadline passed before submit is still computed,
    // and so always completes late.
    ServeOptions options;
    options.shedExpired = false;
    options.admission = false;
    InferenceServer server(*fx.engine, BucketSpec({8, 16}), options);
    Rng body(42);
    for (std::uint64_t id = 0; id < 4; ++id) {
        InferRequest req =
            syntheticRequest(body, id, 6, fx.config.vocabSize);
        req.deadline = monoAddMicros(monoNow(), -1000);
        EXPECT_TRUE(server.submit(std::move(req)).get().ok);
    }
    server.shutdown();
    const ServerStats stats = server.stats();
    const ReplaySummary summary = stopAndReplay(path);

    EXPECT_EQ(stats.completed, 4);
    EXPECT_EQ(stats.completedInDeadline, 0);
    EXPECT_EQ(counterTotal(summary, "serve.completed.late"), 4);
    EXPECT_EQ(counterTotal(summary, "serve.completed.in_deadline"), 0);
    EXPECT_EQ(servedInBatches(summary), stats.completed);
}

TEST(TelemetryHooks, TraceTotalsSpanResetStats)
{
    RecorderGuard guard;
    const std::string path = tempPath("serve_reset.bptr");
    ServeFixture fx(51);
    startRecording(path);

    // resetStats() zeroes the live view; the trace keeps the whole
    // run, so its totals are the sum of the phases.
    ServeOptions options;
    options.defaultDeadlineUs = 60000000;
    InferenceServer server(*fx.engine, BucketSpec({8, 16}), options);
    Rng body(52);
    std::uint64_t next_id = 0;
    ServerStats sum;
    for (int phase = 0; phase < 2; ++phase) {
        server.resetStats();
        for (int i = 0; i < 4; ++i) {
            const std::int64_t len = i == 0 ? 17 : 6;
            server.submit(syntheticRequest(body, next_id++, len,
                                           fx.config.vocabSize))
                .get();
        }
        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.completed, 3) << "phase " << phase;
        EXPECT_EQ(stats.rejectedOverlong, 1) << "phase " << phase;
        sum.completed += stats.completed;
        sum.completedInDeadline += stats.completedInDeadline;
        sum.rejectedOverlong += stats.rejectedOverlong;
    }
    server.shutdown();
    const ReplaySummary summary = stopAndReplay(path);

    EXPECT_EQ(servedInBatches(summary), sum.completed);
    EXPECT_EQ(counterTotal(summary, "serve.completed.in_deadline"),
              sum.completedInDeadline);
    expectRejectionsMatch(summary, sum);
}

// --------------------------------------------------------------------
// Serving: batcher-side shedding and the degradation ladder
// --------------------------------------------------------------------

PendingRequest
makePending(std::uint64_t id, MonoTime arrival)
{
    PendingRequest p;
    p.request.id = id;
    p.request.tokenIds.assign(4, 5);
    p.request.segmentIds.assign(4, 0);
    p.request.arrival = arrival;
    p.request.deadline = monoAddMicros(arrival, 60000000);
    return p;
}

TEST(TelemetryHooks, LadderShiftsAndUrgencyShedsReachTheTrace)
{
    RecorderGuard guard;
    const std::string path = tempPath("ladder.bptr");
    startRecording(path);

    ResolvedServePolicy policy;
    policy.maxWaitUs = 60000000;
    policy.queueCap = 4; // one bucket: thresholds 2 / 3 / 4
    DynamicBatcher batcher(BucketSpec({8}), policy);
    const MonoTime t0 = monoNow();
    std::vector<std::future<InferReply>> futures;
    for (std::uint64_t id = 1; id <= 4; ++id) {
        PendingRequest p = makePending(id, t0);
        futures.push_back(p.promise.get_future());
        ASSERT_EQ(batcher.submit(p), RejectReason::None);
    }
    // Depth 2, 3, 4 climb the ladder one level each.
    EXPECT_EQ(batcher.degradeLevel(), 3);
    // Level 3 sheds one request (QueueFull) and flushes three; the
    // drained queue drops the ladder to 0 in one shift.
    Batch batch;
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_EQ(batch.requests.size(), 3u);
    EXPECT_EQ(batcher.degradeLevel(), 0);
    EXPECT_FALSE(futures[3].get().ok);
    const ReplaySummary summary = stopAndReplay(path);

    EXPECT_EQ(counterTotal(summary, "serve.degrade.shifts"), 4);
    EXPECT_EQ(summary.gauges.at("serve.degrade.level"), 0.0);
    EXPECT_EQ(counterTotal(summary, "serve.shed.urgency"), 1);
    EXPECT_EQ(counterTotal(summary, "serve.rejected.queue-full"),
              batcher.rejectedCount(RejectReason::QueueFull));
}

TEST(TelemetryHooks, DropOldestEvictionsReachTheTrace)
{
    RecorderGuard guard;
    const std::string path = tempPath("evict.bptr");
    startRecording(path);

    ResolvedServePolicy policy;
    policy.maxWaitUs = 60000000;
    policy.queueCap = 1;
    policy.queuePolicy = QueuePolicy::DropOldest;
    policy.degrade = false;
    DynamicBatcher batcher(BucketSpec({8}), policy);
    const MonoTime t0 = monoNow();
    std::vector<std::future<InferReply>> futures;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        PendingRequest p = makePending(id, t0);
        futures.push_back(p.promise.get_future());
        ASSERT_EQ(batcher.submit(p), RejectReason::None);
    }
    // Each newcomer evicted the one queued before it.
    EXPECT_FALSE(futures[0].get().ok);
    EXPECT_FALSE(futures[1].get().ok);
    const ReplaySummary summary = stopAndReplay(path);

    EXPECT_EQ(batcher.rejectedCount(RejectReason::QueueFull), 2);
    EXPECT_EQ(counterTotal(summary, "serve.rejected.queue-full"), 2);
    EXPECT_EQ(counterTotal(summary, "serve.degrade.shifts"), 0);
}

// --------------------------------------------------------------------
// Training
// --------------------------------------------------------------------

TEST(TelemetryHooks, SkippedStepsAndCheckpointsReachTheTrace)
{
    RecorderGuard guard;
    InjectorGuard injector;
    const std::string path = tempPath("train.bptr");
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertPretrainer model(config, &rt);
    Rng init(61);
    model.initialize(init);
    SyntheticDataset dataset(config, 62);
    Lamb lamb{OptimizerConfig{}};
    GradScaler scaler(1024.0f);
    LrSchedule schedule(1e-3f, 2, 100, DecayKind::Linear);
    TrainerOptions options;
    options.checkpointEvery = 1;
    options.checkpointDir = tempPath("train_ckpt");
    Trainer trainer(model, lamb, scaler, schedule, dataset, rt, options);

    // The second step's gradient overflows, so the scaler skips it.
    FaultInjector::instance().configure("inf@train.grad:2");
    startRecording(path);
    std::vector<TrainStepResult> results;
    for (int i = 0; i < 3; ++i)
        results.push_back(trainer.trainStep());
    const ReplaySummary summary = stopAndReplay(path);

    ASSERT_EQ(summary.steps.size(), results.size());
    int skipped = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(summary.steps[i].status,
                  static_cast<int>(results[i].status))
            << i;
        skipped += results[i].status != StepStatus::Applied;
    }
    EXPECT_EQ(skipped, 1);
    EXPECT_EQ(summary.steps[1].status,
              static_cast<int>(StepStatus::SkippedNonFiniteGrad));
    ASSERT_EQ(summary.checkpoints.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(summary.checkpoints[i].step,
                  static_cast<std::int64_t>(i) + 1);
        EXPECT_EQ(summary.checkpoints[i].ok, results[i].checkpointSaved);
        EXPECT_TRUE(summary.checkpoints[i].ok) << i;
    }
}

} // namespace
} // namespace bertprof
