/**
 * @file
 * The request-level inference server: client threads submit
 * variable-length requests and get back futures; a single executor
 * thread drains the dynamic batcher and runs each coalesced batch
 * through the engine's forward-only eval path. One executor because
 * the model's forward is not reentrant — parallelism inside the
 * forward comes from the substrate's thread pool, and batching (not
 * model replication) is the concurrency story this subsystem
 * measures, mirroring the paper's single-device serving setup.
 */

#ifndef BERTPROF_SERVE_SERVER_H
#define BERTPROF_SERVE_SERVER_H

#include <future>
#include <mutex>
#include <thread>

#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/latency.h"
#include "serve/serve_config.h"

namespace bertprof {

/** One server's overload/outcome accounting (all requests ever
 *  submitted resolve into exactly one of these rows). */
struct ServerStats {
    std::int64_t completed = 0;          ///< accepted, computed
    std::int64_t completedInDeadline = 0; ///< ... before the deadline
    std::int64_t rejectedExpired = 0;
    std::int64_t rejectedQueueFull = 0;
    std::int64_t rejectedShutdown = 0;
    std::int64_t rejectedOverlong = 0;
    int degradeLevel = 0; ///< ladder level at snapshot time

    std::int64_t
    rejectedTotal() const
    {
        return rejectedExpired + rejectedQueueFull + rejectedShutdown +
               rejectedOverlong;
    }
};

/** Dynamic-batching, bucket-padding inference front end. */
class InferenceServer
{
  public:
    /**
     * Starts the executor thread. The engine (and the model behind
     * it) must outlive the server and must not be used elsewhere
     * while the server runs.
     */
    InferenceServer(InferenceEngine &engine, const BucketSpec &buckets,
                    const ServeOptions &options = ServeOptions());

    /** Joins the executor (drains pending work first). */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Submit a request from any thread. Stamps the arrival time; a
     * default-constructed deadline becomes arrival +
     * defaultDeadlineUs (saturating). The future always resolves
     * exactly once: with ok=true and logits on success, or ok=false
     * and a typed InferReply::reject reason — Expired (deadline
     * already past at submit, unmeetable under the bucket's measured
     * service time, or shed before compute), QueueFull (bucket at
     * cap under reject-new, evicted under drop-oldest, or shed by
     * the ladder), Shutdown, Overlong.
     */
    std::future<InferReply> submit(InferRequest req);

    /**
     * Stop accepting requests, drain everything already queued, and
     * join the executor. Idempotent; the destructor calls it.
     */
    void shutdown();

    /** End-to-end (submit -> reply) latency over completed requests. */
    LatencySummary latencySummary();

    /** Completed requests so far. */
    std::int64_t completedCount();

    /** Outcome accounting snapshot (completions, typed rejections,
     *  current ladder level). Callable from any thread. */
    ServerStats stats();

    /** Discard latency samples, completion counts and rejection
     *  counts accumulated so far — benchmarks call this after a
     *  warm-up phase so measured percentiles exclude cold-cache /
     *  cold-EWMA traffic, and so stats() obeys submitted = completed
     *  + Σ rejected over the requests submitted since. Batcher
     *  state (service-time EWMAs, ladder level) is preserved:
     *  warming it is the point of a warm-up. */
    void resetStats();

    const BucketSpec &buckets() const { return batcher_.spec(); }
    const ServeOptions &options() const { return options_; }

  private:
    void executorLoop();

    InferenceEngine &engine_;
    ServeOptions options_;
    DynamicBatcher batcher_;

    std::mutex statsMu_;
    LatencyRecorder recorder_;
    std::int64_t completedInDeadline_ = 0;

    std::mutex lifecycleMu_;
    bool shutDown_ = false;
    std::thread executor_;
};

} // namespace bertprof

#endif // BERTPROF_SERVE_SERVER_H
