#include "serve/server.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "runtime/fault_injection.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/logging.h"

namespace bertprof {

InferenceServer::InferenceServer(InferenceEngine &engine,
                                 const BucketSpec &buckets,
                                 const ServeOptions &options)
    : engine_(engine), options_(options),
      batcher_(buckets, options.resolve())
{
    BP_REQUIRE(buckets.maxLen() <= engine.maxPositions());
    BP_REQUIRE(options_.defaultDeadlineUs >= 0);
    executor_ = std::thread([this] { executorLoop(); });
}

InferenceServer::~InferenceServer()
{
    shutdown();
}

std::future<InferReply>
InferenceServer::submit(InferRequest req)
{
    req.arrival = monoNow();
    if (req.deadline == MonoTime{})
        req.deadline = monoAddMicros(req.arrival,
                                     options_.defaultDeadlineUs);

    PendingRequest pending;
    pending.request = std::move(req);
    std::future<InferReply> future = pending.promise.get_future();
    // submit() leaves `pending` untouched on refusal, so rejection
    // resolves the same future a success would — through the
    // batcher's funnel, which types and counts it.
    const RejectReason reason = batcher_.submit(pending);
    if (reason != RejectReason::None)
        batcher_.resolveRejected(pending, reason);
    return future;
}

void
InferenceServer::shutdown()
{
    std::lock_guard<std::mutex> lock(lifecycleMu_);
    if (shutDown_)
        return;
    shutDown_ = true;
    batcher_.close();
    if (executor_.joinable())
        executor_.join();
}

LatencySummary
InferenceServer::latencySummary()
{
    std::lock_guard<std::mutex> lock(statsMu_);
    return recorder_.summary();
}

std::int64_t
InferenceServer::completedCount()
{
    std::lock_guard<std::mutex> lock(statsMu_);
    return recorder_.count();
}

ServerStats
InferenceServer::stats()
{
    ServerStats out;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        out.completed = recorder_.count();
        out.completedInDeadline = completedInDeadline_;
    }
    out.rejectedExpired = batcher_.rejectedCount(RejectReason::Expired);
    out.rejectedQueueFull =
        batcher_.rejectedCount(RejectReason::QueueFull);
    out.rejectedShutdown =
        batcher_.rejectedCount(RejectReason::Shutdown);
    out.rejectedOverlong =
        batcher_.rejectedCount(RejectReason::Overlong);
    out.degradeLevel = batcher_.degradeLevel();
    return out;
}

void
InferenceServer::resetStats()
{
    std::lock_guard<std::mutex> lock(statsMu_);
    recorder_.reset();
    completedInDeadline_ = 0;
    batcher_.resetRejectedCounts();
}

namespace {

std::int64_t
nanosBetween(MonoTime a, MonoTime b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

} // namespace

void
InferenceServer::executorLoop()
{
    auto &metrics = MetricsRegistry::instance();
    Batch batch;
    std::vector<InferReply> replies;
    while (batcher_.nextBatch(batch)) {
        // Pre-compute shed: a batch can sit formed (chaos stall,
        // slow predecessor) long enough for members to expire — drop
        // them now rather than burn a forward pass on dead work. A
        // member whose deadline lands inside the forward pass about
        // to start (deadline < now + bucket EWMA) is equally doomed:
        // its reply would arrive late no matter what, so shedding it
        // here is what keeps the accepted-request tail bounded by
        // the deadline instead of deadline + service time.
        if (batcher_.policy().shedExpired) {
            const MonoTime now = monoNow();
            const auto ewma_ns = static_cast<std::int64_t>(
                batcher_.serviceEwmaSeconds(batch.bucket) * 1e9);
            const MonoTime done_by =
                now + std::chrono::nanoseconds(ewma_ns);
            std::size_t live = 0;
            for (std::size_t i = 0; i < batch.requests.size(); ++i) {
                PendingRequest &pending = batch.requests[i];
                if (pending.request.deadline < done_by ||
                    pending.request.deadline <= now) {
                    metrics.counter("serve.shed.precompute").add(1);
                    TraceRecorder::instance().counter(
                        "serve.shed.precompute", 1);
                    batcher_.resolveRejected(pending,
                                             RejectReason::Expired);
                } else {
                    if (live != i)
                        batch.requests[live] =
                            std::move(batch.requests[i]);
                    ++live;
                }
            }
            batch.requests.resize(live);
            if (batch.requests.empty()) {
                batch = Batch();
                continue;
            }
        }

        // Chaos compute site: `slow` stalls inside the timed window
        // (so the service-time EWMA sees the stall and admission
        // tightens), `nan` poisons the produced logits.
        std::int64_t slow_us = 0;
        const FaultKind fault = faultAt("serve.compute", &slow_us);

        const MonoTime start = monoNow();
        if (fault == FaultKind::Slow && slow_us > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(slow_us));
        engine_.run(batch, replies);
        const MonoTime end = monoNow();
        BP_REQUIRE(replies.size() == batch.requests.size());
        if (fault == FaultKind::NaN) {
            for (InferReply &reply : replies)
                for (float &v : reply.logits)
                    v = std::numeric_limits<float>::quiet_NaN();
        }
        const double compute_seconds = secondsBetween(start, end);
        batcher_.recordServiceTime(batch.bucket, compute_seconds);

        const auto batch_size =
            static_cast<std::int64_t>(batch.requests.size());
        MonoTime oldestArrival = start;
        std::int64_t in_deadline = 0;
        for (std::size_t i = 0; i < batch.requests.size(); ++i) {
            PendingRequest &pending = batch.requests[i];
            InferReply &reply = replies[i];
            if (pending.request.arrival < oldestArrival)
                oldestArrival = pending.request.arrival;
            reply.queueSeconds =
                secondsBetween(pending.request.arrival, start);
            reply.computeSeconds = compute_seconds;
            reply.totalSeconds =
                secondsBetween(pending.request.arrival, end);
            reply.batchSize = batch_size;
            reply.paddedLen = batch.paddedLen;
            if (end <= pending.request.deadline)
                ++in_deadline;
            {
                std::lock_guard<std::mutex> lock(statsMu_);
                recorder_.add(reply.totalSeconds);
                if (end <= pending.request.deadline)
                    ++completedInDeadline_;
            }
            metrics.histogram("serve.queue_seconds")
                .record(reply.queueSeconds);
            metrics.histogram("serve.compute_seconds")
                .record(reply.computeSeconds);
            metrics.histogram("serve.total_seconds")
                .record(reply.totalSeconds);
            pending.promise.set_value(std::move(reply));
        }

        const std::int64_t depth =
            static_cast<std::int64_t>(batcher_.pendingCount());
        metrics.counter("serve.batches").add(1);
        metrics.counter("serve.requests").add(batch_size);
        metrics.counter("serve.completed.in_deadline").add(in_deadline);
        metrics.counter("serve.completed.late")
            .add(batch_size - in_deadline);
        metrics.histogram("serve.batch_occupancy")
            .record(static_cast<double>(batch_size));
        metrics.gauge("serve.queue_depth")
            .set(static_cast<double>(depth));
        metrics.gauge("serve.degrade.level")
            .set(static_cast<double>(batcher_.degradeLevel()));
        TraceRecorder::instance().onServeBatch(
            nanosBetween(oldestArrival, start),
            nanosBetween(start, end), batch_size, batch.paddedLen,
            depth);

        batch.requests.clear();
        replies.clear();
    }
}

} // namespace bertprof
