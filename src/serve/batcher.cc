#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "runtime/fault_injection.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/logging.h"

namespace bertprof {

namespace {

/** EWMA smoothing: new = old + kAlpha * (sample - old). */
constexpr double kEwmaAlpha = 0.25;

void
sleepMicros(std::int64_t us)
{
    if (us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(us));
}

} // namespace

DynamicBatcher::DynamicBatcher(const BucketSpec &spec,
                               const ResolvedServePolicy &policy)
    : spec_(spec), policy_(policy),
      totalCap_(static_cast<std::size_t>(policy.queueCap) *
                static_cast<std::size_t>(spec.numBuckets())),
      queue_(spec.numBuckets()),
      ewmaNanos_(new std::atomic<std::int64_t>[static_cast<std::size_t>(
          spec.numBuckets())])
{
    BP_REQUIRE(policy_.maxBatch >= 1);
    BP_REQUIRE(policy_.maxWaitUs >= 0);
    BP_REQUIRE(policy_.queueCap >= 1);
    BP_REQUIRE(policy_.queuePolicy != QueuePolicy::Default);
    for (int b = 0; b < spec_.numBuckets(); ++b)
        ewmaNanos_[static_cast<std::size_t>(b)].store(
            0, std::memory_order_relaxed);
}

std::size_t
DynamicBatcher::enterThreshold(int level) const
{
    // 1/2, 3/4, 7/8 of total capacity, kept strictly ascending so a
    // tiny capacity still yields a well-ordered (if partly
    // unreachable) ladder.
    const std::size_t half = std::max<std::size_t>(1, totalCap_ / 2);
    const std::size_t three_q =
        std::max(half + 1, 3 * totalCap_ / 4);
    const std::size_t seven_e =
        std::max(three_q + 1, 7 * totalCap_ / 8);
    switch (level) {
    case 1:
        return half;
    case 2:
        return three_q;
    default:
        return seven_e;
    }
}

void
DynamicBatcher::updateLadderLocked()
{
    if (!policy_.degrade)
        return;
    const std::size_t depth = queue_.size();
    const int level = level_.load(std::memory_order_relaxed);
    int next = level;
    while (next < 3 && depth >= enterThreshold(next + 1))
        ++next;
    if (next == level) {
        // Hysteresis: step down only once depth falls to half the
        // level's entry threshold, so the ladder cannot flap.
        while (next > 0 && depth <= enterThreshold(next) / 2)
            --next;
    }
    if (next != level) {
        level_.store(next, std::memory_order_relaxed);
        auto &metrics = MetricsRegistry::instance();
        metrics.counter("serve.degrade.shifts").add(1);
        metrics.gauge("serve.degrade.level")
            .set(static_cast<double>(next));
        TraceRecorder::instance().counter("serve.degrade.shifts", 1);
        TraceRecorder::instance().gauge("serve.degrade.level",
                                        static_cast<double>(next));
    }
}

void
DynamicBatcher::resolveRejected(PendingRequest &pending,
                                RejectReason reason)
{
    BP_REQUIRE(reason != RejectReason::None);
    rejected_[static_cast<std::size_t>(reason)].fetch_add(
        1, std::memory_order_relaxed);
    const std::string counter_name =
        std::string("serve.rejected.") + rejectReasonName(reason);
    MetricsRegistry::instance().counter(counter_name).add(1);
    TraceRecorder::instance().counter(counter_name, 1);
    InferReply reply;
    reply.id = pending.request.id;
    reply.ok = false;
    reply.reject = reason;
    pending.promise.set_value(std::move(reply));
}

RejectReason
DynamicBatcher::submit(PendingRequest &req)
{
    // Chaos admission gate: counts every submission attempt. The
    // stall runs before any lock so a slow client path cannot hold
    // the batcher hostage.
    std::int64_t slow_us = 0;
    const FaultKind fault = faultAt("serve.submit", &slow_us);
    if (fault == FaultKind::Reject)
        return RejectReason::QueueFull;
    if (fault == FaultKind::Slow)
        sleepMicros(slow_us);

    const std::int64_t len =
        static_cast<std::int64_t>(req.request.tokenIds.size());
    BP_REQUIRE(req.request.segmentIds.size() ==
               req.request.tokenIds.size());
    const int bucket = spec_.bucketFor(len);
    if (bucket < 0)
        return RejectReason::Overlong;

    if (policy_.shedExpired &&
        req.request.deadline <= req.request.arrival) {
        // Dead on arrival: the deadline passed before the request
        // reached the queue.
        return RejectReason::Expired;
    }

    PendingRequest evicted;
    bool have_evicted = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            return RejectReason::Shutdown;
        if (policy_.admission) {
            // Admission estimate: the request needs its own bucket
            // service time, plus one service time per batch already
            // queued ahead of it (the single executor drains them
            // one forward pass at a time). Buckets with no EWMA
            // measurement yet contribute nothing, so the gate stays
            // open until the server has seen real service times —
            // after that, a deadline below the estimate is refused
            // at submit instead of queueing dead work.
            const std::int64_t own_ns =
                ewmaNanos_[static_cast<std::size_t>(bucket)].load(
                    std::memory_order_relaxed);
            if (own_ns > 0) {
                std::int64_t est_ns = own_ns;
                for (int b = 0; b < spec_.numBuckets(); ++b) {
                    const std::int64_t b_ns =
                        ewmaNanos_[static_cast<std::size_t>(b)].load(
                            std::memory_order_relaxed);
                    if (b_ns <= 0)
                        continue;
                    const auto queued =
                        static_cast<std::int64_t>(queue_.count(b));
                    const std::int64_t batches =
                        (queued + policy_.maxBatch - 1) /
                        policy_.maxBatch;
                    est_ns += batches * b_ns;
                }
                if (req.request.deadline <
                    req.request.arrival +
                        std::chrono::nanoseconds(est_ns))
                    return RejectReason::Expired;
            }
        }
        if (queue_.count(bucket) >=
            static_cast<std::size_t>(policy_.queueCap)) {
            if (policy_.queuePolicy == QueuePolicy::RejectNew)
                return RejectReason::QueueFull;
            evicted = queue_.popOldest(bucket);
            have_evicted = true;
        }
        queue_.push(bucket, std::move(req));
        updateLadderLocked();
    }
    cv_.notify_all();
    if (have_evicted)
        resolveRejected(evicted, RejectReason::QueueFull);
    return RejectReason::None;
}

bool
DynamicBatcher::shedExpiredLocked(std::unique_lock<std::mutex> &lock)
{
    if (!policy_.shedExpired || queue_.empty())
        return false;
    std::vector<PendingRequest> dead = queue_.dropExpired(monoNow());
    if (dead.empty())
        return false;
    updateLadderLocked();
    lock.unlock();
    MetricsRegistry::instance()
        .counter("serve.shed.dequeue")
        .add(static_cast<std::int64_t>(dead.size()));
    TraceRecorder::instance().counter(
        "serve.shed.dequeue", static_cast<std::int64_t>(dead.size()));
    for (PendingRequest &p : dead)
        resolveRejected(p, RejectReason::Expired);
    lock.lock();
    return true;
}

bool
DynamicBatcher::shedUrgencyLocked(std::unique_lock<std::mutex> &lock)
{
    if (!policy_.degrade ||
        level_.load(std::memory_order_relaxed) < 3)
        return false;
    const std::size_t target = enterThreshold(3) - 1;
    if (queue_.size() <= target)
        return false;
    std::vector<PendingRequest> shed =
        queue_.shedLowestUrgency(target);
    updateLadderLocked();
    lock.unlock();
    MetricsRegistry::instance()
        .counter("serve.shed.urgency")
        .add(static_cast<std::int64_t>(shed.size()));
    TraceRecorder::instance().counter(
        "serve.shed.urgency", static_cast<std::int64_t>(shed.size()));
    for (PendingRequest &p : shed)
        resolveRejected(p, RejectReason::QueueFull);
    lock.lock();
    return true;
}

bool
DynamicBatcher::nextBatch(Batch &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        // Shed dead and lowest-urgency work before looking at the
        // lead: an expired head must never define the flush time,
        // and level-3 pressure relief happens on the executor, off
        // the clients' submit path.
        if (shedExpiredLocked(lock))
            continue;
        if (shedUrgencyLocked(lock))
            continue;
        if (queue_.empty()) {
            if (closed_)
                return false;
            cv_.wait(lock);
            continue;
        }

        // Degradation effects: level 1 shrinks the batching window,
        // level 2+ closes it and halves the per-flush fan-out so a
        // flush never builds the biggest (slowest) batches while the
        // queue is drowning.
        const int level =
            policy_.degrade ? level_.load(std::memory_order_relaxed)
                            : 0;
        std::int64_t wait_us = policy_.maxWaitUs;
        int batch_cap = policy_.maxBatch;
        if (level == 1)
            wait_us /= 4;
        else if (level >= 2)
            wait_us = 0;
        if (level >= 2)
            batch_cap = std::max(1, policy_.maxBatch / 2);

        const int lead = queue_.leadBucket();
        const InferRequest &head = queue_.head(lead);
        const MonoTime flush_at = std::min(
            monoAddMicros(head.arrival, wait_us), head.deadline);
        if (closed_ ||
            queue_.count(lead) >=
                static_cast<std::size_t>(batch_cap) ||
            monoNow() >= flush_at) {
            out.bucket = lead;
            out.paddedLen = spec_.boundary(lead);
            out.requests = queue_.popUpTo(lead, batch_cap);
            updateLadderLocked();

            // Chaos batch-forming site: reject sheds the formed
            // batch wholesale (every member resolves, typed), slow
            // stalls dispatch with no lock held.
            std::int64_t slow_us = 0;
            const FaultKind fault = faultAt("serve.batch", &slow_us);
            if (fault == FaultKind::Reject) {
                lock.unlock();
                for (PendingRequest &p : out.requests)
                    resolveRejected(p, RejectReason::QueueFull);
                out.requests.clear();
                lock.lock();
                continue;
            }
            if (fault == FaultKind::Slow) {
                lock.unlock();
                sleepMicros(slow_us);
                return true;
            }
            return true;
        }
        // A saturated deadline (monoAddMicros clamp) means "wait for
        // company or a new lead": wait_until(max) can overflow the
        // underlying timespec and spin, so use an untimed wait.
        if (flush_at == MonoTime::max())
            cv_.wait(lock);
        else
            cv_.wait_until(lock, flush_at);
    }
}

void
DynamicBatcher::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::size_t
DynamicBatcher::pendingCount()
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

void
DynamicBatcher::recordServiceTime(int bucket, double seconds)
{
    BP_REQUIRE(bucket >= 0 && bucket < spec_.numBuckets());
    if (seconds <= 0.0)
        return;
    const std::int64_t sample_ns =
        static_cast<std::int64_t>(seconds * 1e9);
    std::atomic<std::int64_t> &cell =
        ewmaNanos_[static_cast<std::size_t>(bucket)];
    const std::int64_t old = cell.load(std::memory_order_relaxed);
    const std::int64_t next =
        old == 0 ? sample_ns
                 : old + static_cast<std::int64_t>(
                             kEwmaAlpha *
                             static_cast<double>(sample_ns - old));
    cell.store(next, std::memory_order_relaxed);
}

double
DynamicBatcher::serviceEwmaSeconds(int bucket) const
{
    BP_REQUIRE(bucket >= 0 && bucket < spec_.numBuckets());
    return static_cast<double>(
               ewmaNanos_[static_cast<std::size_t>(bucket)].load(
                   std::memory_order_relaxed)) *
           1e-9;
}

int
DynamicBatcher::degradeLevel() const
{
    return level_.load(std::memory_order_relaxed);
}

std::int64_t
DynamicBatcher::rejectedCount(RejectReason reason) const
{
    return rejected_[static_cast<std::size_t>(reason)].load(
        std::memory_order_relaxed);
}

void
DynamicBatcher::resetRejectedCounts()
{
    for (auto &count : rejected_)
        count.store(0, std::memory_order_relaxed);
}

} // namespace bertprof
