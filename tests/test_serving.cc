/**
 * @file
 * Serving-runtime units: bucket grids, the pending queue's
 * deadline-aware lead selection, the dynamic batcher's
 * max-batch/max-wait/close policy, latency percentiles, the Poisson
 * schedule — and the tentpole numerical property: a request's logits
 * are bitwise identical whether it runs solo, inside a mixed-length
 * bucketed batch, or padded up a bucket, at 1 and at 8 threads, on
 * the unfused and the fused kernel paths.
 */

#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "runtime/config.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/latency.h"
#include "serve/serve_config.h"
#include "serve/traffic.h"
#include "test_helpers.h"

namespace bertprof {
namespace {

using ::bertprof::testing::tinyBertConfig;

constexpr std::int64_t kPadId = 3;

TEST(Bucketing, DefaultSpecFollowsSweepLadder)
{
    const BucketSpec full = BucketSpec::defaultSpec(512);
    EXPECT_EQ(full.boundaries(),
              (std::vector<std::int64_t>{32, 64, 128, 256, 384, 512}));
    // Clipped to a small model: one bucket at maxPositions.
    const BucketSpec tiny = BucketSpec::defaultSpec(32);
    EXPECT_EQ(tiny.boundaries(), (std::vector<std::int64_t>{32}));
    // A max that is not on the ladder becomes the top boundary.
    const BucketSpec odd = BucketSpec::defaultSpec(100);
    EXPECT_EQ(odd.boundaries(), (std::vector<std::int64_t>{32, 64, 100}));
}

TEST(Bucketing, BucketForPicksSmallestFit)
{
    const BucketSpec spec({8, 16, 32});
    EXPECT_EQ(spec.bucketFor(1), 0);
    EXPECT_EQ(spec.bucketFor(8), 0);
    EXPECT_EQ(spec.bucketFor(9), 1);
    EXPECT_EQ(spec.bucketFor(16), 1);
    EXPECT_EQ(spec.bucketFor(32), 2);
    EXPECT_EQ(spec.bucketFor(33), -1);
    EXPECT_EQ(spec.bucketFor(0), -1);
    EXPECT_EQ(spec.boundary(1), 16);
    EXPECT_EQ(spec.maxLen(), 32);
}

PendingRequest
makePending(std::uint64_t id, std::int64_t len, MonoTime arrival,
            std::int64_t deadline_us)
{
    PendingRequest p;
    p.request.id = id;
    p.request.tokenIds.assign(static_cast<std::size_t>(len), 5);
    p.request.segmentIds.assign(static_cast<std::size_t>(len), 0);
    p.request.arrival = arrival;
    p.request.deadline = monoAddMicros(arrival, deadline_us);
    return p;
}

TEST(PendingQueueTest, FifoWithinBucketAndDeadlineLead)
{
    PendingQueue queue(2);
    const MonoTime t0 = monoNow();
    // Bucket 0 gets two requests; bucket 1's single request is the
    // most urgent (earliest deadline) and must lead.
    queue.push(0, makePending(1, 4, t0, 5000));
    queue.push(0, makePending(2, 4, monoAddMicros(t0, 10), 5000));
    queue.push(1, makePending(3, 12, monoAddMicros(t0, 20), 100));
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.leadBucket(), 1);
    EXPECT_EQ(queue.head(1).id, 3u);

    auto batch = queue.popUpTo(1, 8);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].request.id, 3u);

    // Now bucket 0 leads; FIFO order within it.
    EXPECT_EQ(queue.leadBucket(), 0);
    auto rest = queue.popUpTo(0, 1);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].request.id, 1u);
    EXPECT_TRUE(!queue.empty());
    rest = queue.popUpTo(0, 1);
    EXPECT_EQ(rest[0].request.id, 2u);
    EXPECT_TRUE(queue.empty());
}

/** A ResolvedServePolicy with just batch/wait set (rest defaulted). */
ResolvedServePolicy
makePolicy(int max_batch, std::int64_t max_wait_us)
{
    ResolvedServePolicy policy;
    policy.maxBatch = max_batch;
    policy.maxWaitUs = max_wait_us;
    return policy;
}

TEST(DynamicBatcherTest, CoalescesSameBucketUpToMaxBatch)
{
    DynamicBatcher batcher(BucketSpec({8, 16}),
                           makePolicy(/*max_batch=*/3,
                                      /*max_wait_us=*/1000000));
    const MonoTime t0 = monoNow();
    for (std::uint64_t id = 1; id <= 3; ++id) {
        PendingRequest p = makePending(id, 4, t0, 60000000);
        EXPECT_EQ(batcher.submit(p), RejectReason::None);
    }
    Batch batch;
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_EQ(batch.bucket, 0);
    EXPECT_EQ(batch.paddedLen, 8);
    ASSERT_EQ(batch.requests.size(), 3u);
    for (std::uint64_t id = 1; id <= 3; ++id)
        EXPECT_EQ(batch.requests[id - 1].request.id, id);
    EXPECT_EQ(batcher.pendingCount(), 0u);
}

TEST(DynamicBatcherTest, MaxWaitFlushesLoneRequest)
{
    DynamicBatcher batcher(BucketSpec({8}),
                           makePolicy(/*max_batch=*/64,
                                      /*max_wait_us=*/500));
    PendingRequest p = makePending(7, 4, monoNow(), 60000000);
    EXPECT_EQ(batcher.submit(p), RejectReason::None);
    Batch batch;
    const MonoTime start = monoNow();
    ASSERT_TRUE(batcher.nextBatch(batch));
    // The lone request shipped after ~max_wait, far below max_batch.
    EXPECT_EQ(batch.requests.size(), 1u);
    EXPECT_LT(secondsBetween(start, monoNow()), 5.0);
}

TEST(DynamicBatcherTest, DeadlineBeatsMaxWait)
{
    // shedExpired off: the legacy flush-accelerator semantics, where
    // a request reaching its deadline still ships (late) instead of
    // being shed at dequeue.
    ResolvedServePolicy policy = makePolicy(/*max_batch=*/64,
                                            /*max_wait_us=*/60000000);
    policy.shedExpired = false;
    DynamicBatcher batcher(BucketSpec({8}), policy);
    // Deadline 1ms out; max-wait alone would hold for a minute.
    PendingRequest p = makePending(8, 4, monoNow(), 1000);
    EXPECT_EQ(batcher.submit(p), RejectReason::None);
    Batch batch;
    const MonoTime start = monoNow();
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_EQ(batch.requests.size(), 1u);
    EXPECT_LT(secondsBetween(start, monoNow()), 5.0);
}

TEST(DynamicBatcherTest, ExpiredQueuedRequestIsShedAtDequeue)
{
    // With shedding on (the default), the same scenario resolves the
    // request Expired at dequeue and the batcher moves on to live
    // work instead of shipping a dead batch.
    DynamicBatcher batcher(BucketSpec({8, 16}),
                           makePolicy(/*max_batch=*/64,
                                      /*max_wait_us=*/2000));
    PendingRequest doomed = makePending(1, 4, monoNow(), 1000);
    std::future<InferReply> doomed_future = doomed.promise.get_future();
    EXPECT_EQ(batcher.submit(doomed), RejectReason::None);
    PendingRequest alive = makePending(2, 12, monoNow(), 60000000);
    EXPECT_EQ(batcher.submit(alive), RejectReason::None);

    Batch batch;
    ASSERT_TRUE(batcher.nextBatch(batch));
    ASSERT_EQ(batch.requests.size(), 1u);
    EXPECT_EQ(batch.requests[0].request.id, 2u);
    const InferReply shed = doomed_future.get();
    EXPECT_FALSE(shed.ok);
    EXPECT_EQ(shed.reject, RejectReason::Expired);
    EXPECT_EQ(batcher.rejectedCount(RejectReason::Expired), 1);
}

TEST(DynamicBatcherTest, RejectsOverlongAndClosed)
{
    DynamicBatcher batcher(BucketSpec({8}), makePolicy(4, 1000));
    PendingRequest too_long = makePending(1, 9, monoNow(), 1000);
    EXPECT_EQ(batcher.submit(too_long), RejectReason::Overlong);
    PendingRequest empty = makePending(2, 0, monoNow(), 1000);
    EXPECT_EQ(batcher.submit(empty), RejectReason::Overlong);

    PendingRequest queued = makePending(3, 4, monoNow(), 1000);
    EXPECT_EQ(batcher.submit(queued), RejectReason::None);
    batcher.close();
    PendingRequest late = makePending(4, 4, monoNow(), 1000);
    EXPECT_EQ(batcher.submit(late), RejectReason::Shutdown);

    // Close drains: the queued request still ships, then the stream
    // ends.
    Batch batch;
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_EQ(batch.requests.size(), 1u);
    EXPECT_EQ(batch.requests[0].request.id, 3u);
    EXPECT_FALSE(batcher.nextBatch(batch));
}

TEST(LatencyRecorderTest, NearestRankPercentiles)
{
    LatencyRecorder recorder;
    for (int i = 1; i <= 100; ++i)
        recorder.add(static_cast<double>(i));
    const LatencySummary s = recorder.summary();
    EXPECT_EQ(s.count, 100);
    EXPECT_DOUBLE_EQ(s.p50Seconds, 50.0);
    EXPECT_DOUBLE_EQ(s.p90Seconds, 90.0);
    EXPECT_DOUBLE_EQ(s.p99Seconds, 99.0);
    EXPECT_DOUBLE_EQ(s.p999Seconds, 100.0);
    EXPECT_DOUBLE_EQ(s.maxSeconds, 100.0);
    EXPECT_DOUBLE_EQ(s.meanSeconds, 50.5);

    EXPECT_EQ(LatencyRecorder().summary().count, 0);
}

TEST(TrafficTest, PoissonScheduleIsDeterministicAndCalibrated)
{
    const auto a = poissonSchedule(1000.0, 2000, 42);
    const auto b = poissonSchedule(1000.0, 2000, 42);
    EXPECT_EQ(a, b);
    const auto c = poissonSchedule(1000.0, 2000, 43);
    EXPECT_NE(a, c);
    ASSERT_EQ(a.size(), 2000u);
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i], a[i - 1]);
    // 2000 arrivals at 1000 qps span ~2s; allow generous slack.
    EXPECT_GT(a.back(), 1.0);
    EXPECT_LT(a.back(), 4.0);
}

TEST(ServeConfigTest, EnvKnobsResolve)
{
    ServeOptions opts;
    opts.maxBatch = 16;
    opts.maxWaitUs = 123;
    EXPECT_EQ(opts.resolvedMaxBatch(), 16);
    EXPECT_EQ(opts.resolvedMaxWaitUs(), 123);

    // Fallback path: the env knob (or its default) applies.
    ServeOptions defaults;
    EXPECT_EQ(defaults.resolvedMaxBatch(), configuredServeMaxBatch());
    EXPECT_EQ(defaults.resolvedMaxWaitUs(), configuredServeMaxWaitUs());
}

/** Build a one-off Batch around explicit requests. */
Batch
makeBatch(std::vector<PendingRequest> requests, std::int64_t padded_len)
{
    Batch batch;
    batch.bucket = 0;
    batch.paddedLen = padded_len;
    batch.requests = std::move(requests);
    return batch;
}

bool
sameRow(const InferReply &a, const InferReply &b)
{
    if (a.rows != b.rows || a.cols != b.cols)
        return false;
    return std::memcmp(a.logits.data(), b.logits.data(),
                       a.logits.size() * sizeof(float)) == 0;
}

/**
 * The bitwise padding-invariance property behind bucketed batching:
 * batch composition and pad amount must not change a request's
 * logits at all — masked keys underflow out of the softmax exactly,
 * and every other op is row-local.
 */
void
runPaddingInvariance(int num_threads, FusionMode fusion)
{
    setNumThreads(num_threads);
    setFusionMode(fusion);
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(31);
    clf.initialize(init);
    clf.setTraining(false);
    ClassifierEngine engine(clf, kPadId);

    Rng body(32);
    InferRequest probe =
        syntheticRequest(body, 1, /*len=*/10, config.vocabSize);
    InferRequest full =
        syntheticRequest(body, 2, /*len=*/16, config.vocabSize);
    InferRequest mid =
        syntheticRequest(body, 3, /*len=*/12, config.vocabSize);

    auto pend = [](const InferRequest &req) {
        PendingRequest p;
        p.request = req;
        return p;
    };

    // Solo at bucket 16.
    std::vector<InferReply> solo;
    {
        std::vector<PendingRequest> reqs;
        reqs.push_back(pend(probe));
        Batch batch = makeBatch(std::move(reqs), 16);
        engine.run(batch, solo);
    }
    // Mixed-length batch at the same bucket.
    std::vector<InferReply> mixed;
    {
        std::vector<PendingRequest> reqs;
        reqs.push_back(pend(probe));
        reqs.push_back(pend(full));
        reqs.push_back(pend(mid));
        Batch batch = makeBatch(std::move(reqs), 16);
        engine.run(batch, mixed);
    }
    // Padded one bucket further (32 = tiny model's maxPositions).
    std::vector<InferReply> padded;
    {
        std::vector<PendingRequest> reqs;
        reqs.push_back(pend(probe));
        Batch batch = makeBatch(std::move(reqs), 32);
        engine.run(batch, padded);
    }

    ASSERT_EQ(solo.size(), 1u);
    ASSERT_EQ(mixed.size(), 3u);
    ASSERT_EQ(padded.size(), 1u);
    EXPECT_TRUE(solo[0].ok);
    EXPECT_EQ(solo[0].rows, 1);
    EXPECT_EQ(solo[0].cols, config.numClasses);
    EXPECT_TRUE(sameRow(solo[0], mixed[0]))
        << "batch composition changed the probe's logits";
    EXPECT_TRUE(sameRow(solo[0], padded[0]))
        << "padding to a larger bucket changed the probe's logits";
    setNumThreads(0);
    clearFusionModeOverride();
}

TEST(PaddingInvariance, BitwiseAtOneThread)
{
    runPaddingInvariance(1, FusionMode::Off);
}

TEST(PaddingInvariance, BitwiseAtEightThreads)
{
    runPaddingInvariance(8, FusionMode::Off);
}

TEST(PaddingInvariance, FusedBitwiseAtOneThread)
{
    runPaddingInvariance(1, FusionMode::On);
}

TEST(PaddingInvariance, FusedBitwiseAtEightThreads)
{
    runPaddingInvariance(8, FusionMode::On);
}

} // namespace
} // namespace bertprof
