/**
 * @file
 * The dynamic batcher: the thread-safe meeting point between client
 * threads submitting requests and the executor thread draining
 * batches. Policy (max-batch / max-wait, deadline-aware, bounded):
 *
 *  - The *lead* is the most urgent pending request (earliest
 *    deadline, FIFO within its bucket). Only same-bucket requests
 *    coalesce — members share one padded forward pass, so mixing
 *    buckets would re-introduce the padding waste bucketing removes.
 *  - A batch ships as soon as the lead's bucket holds maxBatch
 *    requests, or when now reaches min(lead.arrival + maxWaitUs,
 *    lead.deadline) — i.e. a lone request waits at most maxWaitUs
 *    for company, and never waits past its own deadline.
 *  - Admission control: each bucket holds at most queueCap pending
 *    requests. At cap, the policy either refuses the arriving
 *    request (reject-new) or evicts the bucket's oldest to admit it
 *    (drop-oldest). A request whose deadline has already passed — or
 *    falls below the admission estimate (its bucket's service-time
 *    EWMA plus one EWMA service time per batch already queued ahead
 *    of it) — is refused at submit instead of queueing dead work.
 *  - Load shedding: expired requests are dropped at dequeue and
 *    batch-forming time; every dropped/refused request resolves its
 *    future with a typed RejectReason, so no promise ever leaks.
 *  - Degradation ladder (hysteretic, driven by total queue depth):
 *    level 1 shrinks the batching window (maxWaitUs/4), level 2
 *    closes it and halves the per-flush fan-out cap so batches ship
 *    immediately and head-of-line compute stays short, level 3
 *    additionally sheds the lowest-urgency queued work. Levels step
 *    down only after depth falls to half the level's entry
 *    threshold, so the ladder cannot flap at a boundary.
 *  - close() drains: pending requests still ship (flushed
 *    immediately, minus expired ones), new submissions are refused.
 *
 * Chaos sites (runtime/fault_injection.h): `serve.submit` fires once
 * per submission (reject = admission refusal, slow = stalled client
 * path), `serve.batch` once per formed batch (reject = batch shed
 * wholesale, slow = stalled dispatch).
 */

#ifndef BERTPROF_SERVE_BATCHER_H
#define BERTPROF_SERVE_BATCHER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "serve/bucketing.h"
#include "serve/request_queue.h"
#include "serve/serve_config.h"

namespace bertprof {

/** Thread-safe deadline-aware request batcher with admission
 *  control and graceful degradation. */
class DynamicBatcher
{
  public:
    DynamicBatcher(const BucketSpec &spec,
                   const ResolvedServePolicy &policy);

    /**
     * Enqueue a request (any thread). Returns RejectReason::None on
     * success, with `req` moved from. On refusal — closed
     * (Shutdown), empty or longer than the top bucket (Overlong),
     * dead-on-arrival or unmeetable deadline (Expired), bucket at
     * cap under reject-new (QueueFull) — `req` is left untouched and
     * the caller resolves its promise with the returned reason.
     * Under drop-oldest the evicted request is resolved (QueueFull)
     * in here.
     */
    RejectReason submit(PendingRequest &req);

    /**
     * Dequeue the next batch (executor thread). Blocks until a batch
     * is ready under the policy above; false once closed and fully
     * drained.
     */
    bool nextBatch(Batch &out);

    /** Refuse new submissions; pending work still drains. */
    void close();

    /** Requests currently queued (diagnostic). */
    std::size_t pendingCount();

    /**
     * Fold one measured per-batch service time into `bucket`'s EWMA
     * (executor thread, after each engine run). The EWMA feeds the
     * admission gate's time-to-complete estimate.
     */
    void recordServiceTime(int bucket, double seconds);

    /** Current EWMA service time for `bucket`; 0 before the first
     *  measurement. */
    double serviceEwmaSeconds(int bucket) const;

    /** Current degradation-ladder level (0 = normal .. 3 = shedding). */
    int degradeLevel() const;

    /** Requests refused or shed with `reason` so far (this batcher). */
    std::int64_t rejectedCount(RejectReason reason) const;

    /** Zero every per-reason rejection count. */
    void resetRejectedCounts();

    /**
     * Resolve `pending`'s future as rejected with `reason` and count
     * it (per-reason atomic + the process-wide
     * serve.rejected.<reason> counter). Used by the batcher's own
     * eviction/shedding paths and by the server for submit-time
     * refusals, so every typed rejection funnels through one place.
     */
    void resolveRejected(PendingRequest &pending, RejectReason reason);

    const BucketSpec &spec() const { return spec_; }
    const ResolvedServePolicy &policy() const { return policy_; }
    int maxBatch() const { return policy_.maxBatch; }
    std::int64_t maxWaitUs() const { return policy_.maxWaitUs; }

  private:
    /** Depth at which level `level` (1-based) engages. */
    std::size_t enterThreshold(int level) const;
    /** Recompute the ladder level from queue depth (mu_ held). */
    void updateLadderLocked();
    /** Drop expired queued work; true when something was shed
     *  (mu_ held on entry and exit, released to resolve). */
    bool shedExpiredLocked(std::unique_lock<std::mutex> &lock);
    /** Level-3 urgency shedding down to the entry threshold
     *  (mu_ held on entry and exit, released to resolve). */
    bool shedUrgencyLocked(std::unique_lock<std::mutex> &lock);

    const BucketSpec spec_;
    const ResolvedServePolicy policy_;
    const std::size_t totalCap_;

    std::mutex mu_;
    std::condition_variable cv_;
    PendingQueue queue_;
    bool closed_ = false;

    std::atomic<int> level_{0};
    std::unique_ptr<std::atomic<std::int64_t>[]> ewmaNanos_;
    std::atomic<std::int64_t> rejected_[5] = {};
};

} // namespace bertprof

#endif // BERTPROF_SERVE_BATCHER_H
