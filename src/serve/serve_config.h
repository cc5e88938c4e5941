/**
 * @file
 * Serving-runtime policy: batching, admission control and overload
 * behavior for one server instance. Every field carries its default
 * directly; callers that want another policy set the field.
 */

#ifndef BERTPROF_SERVE_SERVE_CONFIG_H
#define BERTPROF_SERVE_SERVE_CONFIG_H

#include <cstdint>

namespace bertprof {

/** Behavior of a full per-bucket queue at submit. */
enum class QueuePolicy {
    RejectNew,  ///< refuse the arriving request (QueueFull)
    DropOldest, ///< evict the bucket's oldest request, admit the new
};

/**
 * The batcher's overload policy, plus the shedding switches the
 * overload bench flips to reproduce the pre-admission-control
 * behavior as its baseline.
 */
struct ResolvedServePolicy {
    /** Max requests per coalesced batch, in [1, 1024]. */
    int maxBatch = 8;
    /** Max microseconds a lone request is held open for company. */
    std::int64_t maxWaitUs = 2000;
    /** Admission control: max pending requests per bucket. */
    int queueCap = 64;
    QueuePolicy queuePolicy = QueuePolicy::RejectNew;
    /** Arm the hysteretic degradation ladder. */
    bool degrade = true;
    /** Reject at submit when the deadline is provably unmeetable
     *  (needs a per-bucket service-time EWMA measurement first). */
    bool admission = true;
    /** Drop expired requests at every stage instead of computing
     *  them (submit, dequeue, batch-forming, pre-compute). The
     *  overload bench's no-shedding baseline sets this false. */
    bool shedExpired = true;
};

/** Batching policy for one server instance. */
struct ServeOptions : ResolvedServePolicy {
    /**
     * Deadline assigned on submit when a request carries none, in
     * microseconds after arrival. Deadlines accelerate flushes (a
     * batch never waits past its most urgent member's deadline) and,
     * with shedExpired, bound how long a request may be computed at
     * all.
     */
    std::int64_t defaultDeadlineUs = 100000;

    /** The batcher's part of the options (what it runs on). */
    ResolvedServePolicy resolve() const { return *this; }
};

} // namespace bertprof

#endif // BERTPROF_SERVE_SERVE_CONFIG_H
