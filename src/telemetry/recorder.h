/**
 * @file
 * Low-overhead recording path from the running process into the trace
 * container. Producer threads (kernel scopes, the trainer step loop,
 * the serving executor) append TraceEvents to thread-local ring
 * buffers; a background flusher drains them, time-sorts, and seals
 * compressed chunks through TraceWriter — so the hot path never takes
 * a global lock or touches the filesystem.
 *
 * The recorder installs itself as the runtime's KernelEventSink, which
 * is how kernel records reach it without the runtime layer depending
 * on telemetry. Setting BERTPROF_TRACE=<path> arms recording for the
 * whole process at startup; programs can also start/stop explicitly.
 */

#ifndef BERTPROF_TELEMETRY_RECORDER_H
#define BERTPROF_TELEMETRY_RECORDER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/io_status.h"
#include "runtime/profiler.h"
#include "telemetry/trace_format.h"
#include "telemetry/trace_writer.h"

namespace bertprof {

/** Tuning for one recording session. */
struct RecorderOptions {
    std::string path;                ///< container file to write
    std::size_t chunkBytes = 256 * 1024; ///< seal threshold (raw bytes)
    std::size_t ringEvents = 4096;   ///< per-thread buffer capacity
};

/**
 * Process-wide trace recorder. One recording session at a time;
 * start() installs the kernel sink and spawns the flusher, stop()
 * drains every thread buffer, seals the final chunk, and closes the
 * container. All emit calls are safe from any thread and are cheap
 * no-ops while recording is off.
 */
class TraceRecorder : public KernelEventSink
{
  public:
    /** The process-wide recorder. */
    static TraceRecorder &instance();

    /**
     * Begin recording to options.path. Fails if already recording or
     * the container cannot be opened. On success installs this
     * recorder as the runtime kernel sink.
     */
    IoStatus start(const RecorderOptions &options);

    /**
     * Stop recording: uninstall the sink, drain all buffers, seal the
     * final chunk, fsync, and close. Returns the writer's final
     * status (a latched mid-run write failure surfaces here). Safe to
     * call when not recording (no-op success).
     */
    IoStatus stop();

    /** True between a successful start() and the matching stop(). */
    bool recording() const
    {
        return recording_.load(std::memory_order_acquire);
    }

    /**
     * Start from BERTPROF_TRACE if set and not already recording.
     * Called once from a static initializer; exposed for tests.
     */
    void maybeStartFromEnv();

    // KernelEventSink
    void onKernel(const ProfileRecord &rec, std::int64_t endSteadyNs,
                  std::int64_t durNs) override;

    /** One finished training step. */
    void onTrainStep(std::int64_t step, int status, std::int64_t durNs,
                     float loss, float lr);
    /** One checkpoint save attempt. */
    void onCheckpoint(std::int64_t step, bool ok, std::int64_t durNs);
    /** One executed serving batch. */
    void onServeBatch(std::int64_t queueNs, std::int64_t computeNs,
                      std::int64_t batchSize, std::int64_t paddedLen,
                      std::int64_t queueDepth);
    /** Named counter increment, recorded in the trace stream. */
    void counter(const std::string &name, std::int64_t delta);
    /** Named gauge sample, recorded in the trace stream. */
    void gauge(const std::string &name, double value);
    /** Free-form instant marker. */
    void mark(const std::string &name);

    /** Events accepted since start() (drops excluded). */
    std::int64_t eventsRecorded() const
    {
        return eventsRecorded_.load(std::memory_order_relaxed);
    }
    /** Events dropped because a ring was full during a flush stall. */
    std::int64_t eventsDropped() const
    {
        return eventsDropped_.load(std::memory_order_relaxed);
    }
    /** Chunks sealed so far. */
    std::int64_t chunksSealed() const
    {
        return chunksSealed_.load(std::memory_order_relaxed);
    }

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

  private:
    TraceRecorder() = default;
    ~TraceRecorder() override;

    /** Per-producer-thread buffer; lives for the process. */
    struct ThreadBuf {
        std::mutex mu;
        std::vector<TraceEvent> events;
        std::uint8_t tid = 0;
    };

    ThreadBuf &localBuf();
    void emit(const TraceEvent &event);
    std::uint32_t internName(const std::string &name);
    void flusherLoop();
    /**
     * Move every thread buffer's contents into `staging`. Returns the
     * number of buffers that contributed events.
     */
    std::size_t drainAll(std::vector<TraceEvent> &staging);
    /**
     * Seal staging into one chunk (if non-empty). `producers` is
     * drainAll's return: with more than one, staging is time-sorted
     * first; a single producer's events are already in order.
     */
    void sealChunk(std::vector<TraceEvent> &staging,
                   std::size_t producers);

    std::atomic<bool> recording_{false};
    std::atomic<std::int64_t> eventsRecorded_{0};
    std::atomic<std::int64_t> eventsDropped_{0};
    std::atomic<std::int64_t> chunksSealed_{0};

    std::mutex bufsMu_; ///< guards bufs_ (registration + drain sweep)
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;

    std::mutex namesMu_;
    std::unordered_map<std::string, std::uint32_t> nameIds_;
    std::vector<std::string> names_;

    /**
     * Serializes start()/stop() and the flusher's sleep/wake; the
     * writer itself is only touched by start() before the flusher
     * exists, the flusher while it runs, and stop() after the join,
     * so it needs no lock of its own. options_ is written in start()
     * and read-only while recording.
     */
    std::mutex stateMu_;
    std::unique_ptr<TraceWriter> writer_; ///< fresh per session
    RecorderOptions options_;
    std::thread flusher_;
    std::mutex flushMu_; ///< guards the two flags under flushCv_
    std::condition_variable flushCv_;
    bool stopFlusher_ = false;
    bool drainRequested_ = false; ///< a ring crossed its threshold

    std::atomic<bool> envChecked_{false};
};

} // namespace bertprof

#endif // BERTPROF_TELEMETRY_RECORDER_H
