#include "telemetry/recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "io/binary_io.h"
#include "runtime/env.h"
#include "util/logging.h"

namespace bertprof {

namespace {

std::int64_t
nowSteadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
floatBits(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return static_cast<std::int64_t>(bits);
}

std::int64_t
doubleBits(double v)
{
    std::int64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

void
stopAtExit()
{
    // atexit context: no caller left to receive a flush failure.
    // bplint: allow(must-check-io)
    (void)TraceRecorder::instance().stop();
}

/** A ring may hold this many multiples of ringEvents before drops. */
constexpr std::size_t kRingHardCapFactor = 8;

} // namespace

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

TraceRecorder::~TraceRecorder()
{
    // Destructor has nowhere to surface a flush failure; stop() is
    // the checked path and runs via stopAtExit or explicit calls.
    // bplint: allow(must-check-io)
    (void)stop();
}

IoStatus
TraceRecorder::start(const RecorderOptions &options)
{
    std::lock_guard<std::mutex> lock(stateMu_);
    if (recording_.load(std::memory_order_acquire)) {
        return IoStatus::failure(IoError::OpenFailed,
                                 "trace recorder is already recording");
    }
    if (options.path.empty()) {
        return IoStatus::failure(IoError::OpenFailed,
                                 "trace recorder needs a non-empty path");
    }
    auto writer = std::make_unique<TraceWriter>();
    IoStatus status = writer->open(options.path);
    if (!status.ok())
        return status;
    writer_ = std::move(writer);
    options_ = options;
    if (options_.ringEvents == 0)
        options_.ringEvents = 1;
    eventsRecorded_.store(0, std::memory_order_relaxed);
    eventsDropped_.store(0, std::memory_order_relaxed);
    chunksSealed_.store(0, std::memory_order_relaxed);
    {
        // Fresh container: the full name table must be re-emitted, so
        // restart interning from id 0.
        std::lock_guard<std::mutex> nameLock(namesMu_);
        nameIds_.clear();
        names_.clear();
    }
    {
        // Stale events from a previous session reference the old name
        // table — they must not leak into this container.
        std::lock_guard<std::mutex> bufsLock(bufsMu_);
        for (auto &buf : bufs_) {
            std::lock_guard<std::mutex> bufLock(buf->mu);
            buf->events.clear();
        }
    }
    stopFlusher_ = false;
    flusher_ = std::thread([this] { flusherLoop(); });
    recording_.store(true, std::memory_order_release);
    installKernelSink(this);
    static std::atomic<bool> atexitRegistered{false};
    if (!atexitRegistered.exchange(true))
        std::atexit(stopAtExit);
    return IoStatus::success();
}

IoStatus
TraceRecorder::stop()
{
    std::lock_guard<std::mutex> lock(stateMu_);
    if (!recording_.load(std::memory_order_acquire))
        return IoStatus::success();
    installKernelSink(nullptr);
    recording_.store(false, std::memory_order_release);
    {
        std::lock_guard<std::mutex> flushLock(flushMu_);
        stopFlusher_ = true;
    }
    flushCv_.notify_all();
    if (flusher_.joinable())
        flusher_.join();
    // The flusher sealed what it saw; catch producers that raced the
    // recording_ flip.
    std::vector<TraceEvent> staging;
    const std::size_t producers = drainAll(staging);
    sealChunk(staging, producers);
    IoStatus status = writer_->close();
    writer_.reset();
    return status;
}

void
TraceRecorder::maybeStartFromEnv()
{
    if (envChecked_.exchange(true))
        return;
    const std::string path = envString("BERTPROF_TRACE", "");
    if (path.empty())
        return;
    RecorderOptions options;
    options.path = path;
    IoStatus status = start(options);
    if (!status.ok()) {
        BP_LOG(Warn) << "BERTPROF_TRACE=" << path
                     << " could not start recording: "
                     << status.message;
    }
}

TraceRecorder::ThreadBuf &
TraceRecorder::localBuf()
{
    thread_local ThreadBuf *buf = nullptr;
    if (!buf) {
        auto owned = std::make_unique<ThreadBuf>();
        std::lock_guard<std::mutex> lock(bufsMu_);
        owned->tid = static_cast<std::uint8_t>(
            std::min<std::size_t>(bufs_.size(), 255));
        buf = owned.get();
        bufs_.push_back(std::move(owned));
    }
    return *buf;
}

void
TraceRecorder::emit(const TraceEvent &event)
{
    ThreadBuf &buf = localBuf();
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(buf.mu);
        if (buf.events.size() >=
            options_.ringEvents * kRingHardCapFactor) {
            eventsDropped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        TraceEvent e = event;
        e.tid = buf.tid;
        buf.events.push_back(e);
        // Wake the flusher only on the threshold *crossing*: waking
        // it per event would context-switch on every kernel while a
        // ring sits above the threshold.
        wake = buf.events.size() == options_.ringEvents;
    }
    eventsRecorded_.fetch_add(1, std::memory_order_relaxed);
    if (wake) {
        {
            std::lock_guard<std::mutex> lock(flushMu_);
            drainRequested_ = true;
        }
        flushCv_.notify_one();
    }
}

std::uint32_t
TraceRecorder::internName(const std::string &name)
{
    std::lock_guard<std::mutex> lock(namesMu_);
    auto [it, inserted] = nameIds_.emplace(
        name, static_cast<std::uint32_t>(names_.size()));
    if (inserted)
        names_.push_back(name);
    return it->second;
}

void
TraceRecorder::flusherLoop()
{
    std::vector<TraceEvent> staging;
    std::size_t producers = 0;
    for (;;) {
        bool stopping = false;
        {
            std::unique_lock<std::mutex> lock(flushMu_);
            flushCv_.wait_for(lock, std::chrono::milliseconds(50),
                              [this] {
                                  return stopFlusher_ ||
                                         drainRequested_;
                              });
            stopping = stopFlusher_;
            drainRequested_ = false;
        }
        producers += drainAll(staging);
        const std::size_t approxBytes =
            staging.size() * sizeof(TraceEvent);
        if (stopping || approxBytes >= options_.chunkBytes) {
            sealChunk(staging, producers);
            producers = 0;
        }
        if (stopping)
            return;
    }
}

std::size_t
TraceRecorder::drainAll(std::vector<TraceEvent> &staging)
{
    std::size_t producers = 0;
    std::lock_guard<std::mutex> lock(bufsMu_);
    for (auto &buf : bufs_) {
        std::lock_guard<std::mutex> bufLock(buf->mu);
        if (buf->events.empty())
            continue;
        staging.insert(staging.end(), buf->events.begin(),
                       buf->events.end());
        buf->events.clear();
        ++producers;
    }
    return producers;
}

void
TraceRecorder::sealChunk(std::vector<TraceEvent> &staging,
                         std::size_t producers)
{
    if (staging.empty() || !writer_ || writer_->failed()) {
        staging.clear();
        return;
    }
    // A single producer's events arrive in timestamp order already;
    // only interleaved multi-thread drains need the sort.
    if (producers > 1) {
        std::stable_sort(staging.begin(), staging.end(),
                         [](const TraceEvent &a, const TraceEvent &b) {
                             return a.tsNs < b.tsNs;
                         });
    }
    std::vector<std::string> namesSnapshot;
    {
        std::lock_guard<std::mutex> lock(namesMu_);
        namesSnapshot = names_;
    }
    IoStatus status = writer_->appendChunk(staging, namesSnapshot);
    if (!status.ok()) {
        BP_LOG(Warn) << "trace chunk append failed (recording "
                        "continues without persistence): "
                     << status.message;
    } else {
        chunksSealed_.fetch_add(1, std::memory_order_relaxed);
    }
    staging.clear();
}

void
TraceRecorder::onKernel(const ProfileRecord &rec,
                        std::int64_t endSteadyNs, std::int64_t durNs)
{
    if (!recording())
        return;
    TraceEvent event;
    event.type = TraceEventType::Kernel;
    event.tsNs = endSteadyNs;
    event.nameId = internName(rec.name);
    event.a = static_cast<std::uint8_t>(rec.kind);
    event.b = static_cast<std::uint8_t>(rec.phase);
    event.c = static_cast<std::uint8_t>(rec.scope);
    event.d = static_cast<std::uint8_t>(rec.sub);
    event.v0 = durNs;
    event.v1 = rec.stats.flops;
    event.v2 = rec.stats.bytesRead;
    event.v3 = rec.stats.bytesWritten;
    emit(event);
}

void
TraceRecorder::onTrainStep(std::int64_t step, int status,
                           std::int64_t durNs, float loss, float lr)
{
    if (!recording())
        return;
    TraceEvent event;
    event.type = TraceEventType::TrainStep;
    event.tsNs = nowSteadyNs();
    event.nameId = internName("train.step");
    event.a = static_cast<std::uint8_t>(status);
    event.v0 = durNs;
    event.v1 = step;
    event.v2 = floatBits(loss);
    event.v3 = floatBits(lr);
    emit(event);
}

void
TraceRecorder::onCheckpoint(std::int64_t step, bool ok,
                            std::int64_t durNs)
{
    if (!recording())
        return;
    TraceEvent event;
    event.type = TraceEventType::Checkpoint;
    event.tsNs = nowSteadyNs();
    event.nameId = internName("train.checkpoint");
    event.a = ok ? 1 : 0;
    event.v0 = durNs;
    event.v1 = step;
    emit(event);
}

void
TraceRecorder::onServeBatch(std::int64_t queueNs, std::int64_t computeNs,
                            std::int64_t batchSize,
                            std::int64_t paddedLen,
                            std::int64_t queueDepth)
{
    if (!recording())
        return;
    TraceEvent event;
    event.type = TraceEventType::ServeBatch;
    event.tsNs = nowSteadyNs();
    event.nameId = internName("serve.batch");
    event.v0 = queueNs;
    event.v1 = computeNs;
    event.v2 = batchSize;
    event.v3 = paddedLen;
    // Queue depth rides the four byte lanes as a little-endian u32.
    const std::uint32_t depth = static_cast<std::uint32_t>(
        std::min<std::int64_t>(std::max<std::int64_t>(queueDepth, 0),
                               0xffffffffLL));
    event.a = static_cast<std::uint8_t>(depth & 0xff);
    event.b = static_cast<std::uint8_t>((depth >> 8) & 0xff);
    event.c = static_cast<std::uint8_t>((depth >> 16) & 0xff);
    event.d = static_cast<std::uint8_t>((depth >> 24) & 0xff);
    emit(event);
}

void
TraceRecorder::counter(const std::string &name, std::int64_t delta)
{
    if (!recording())
        return;
    TraceEvent event;
    event.type = TraceEventType::Counter;
    event.tsNs = nowSteadyNs();
    event.nameId = internName(name);
    event.v0 = delta;
    emit(event);
}

void
TraceRecorder::gauge(const std::string &name, double value)
{
    if (!recording())
        return;
    TraceEvent event;
    event.type = TraceEventType::Gauge;
    event.tsNs = nowSteadyNs();
    event.nameId = internName(name);
    event.v0 = doubleBits(value);
    emit(event);
}

void
TraceRecorder::mark(const std::string &name)
{
    if (!recording())
        return;
    TraceEvent event;
    event.type = TraceEventType::Mark;
    event.tsNs = nowSteadyNs();
    event.nameId = internName(name);
    emit(event);
}

namespace {

/** Arms recording at startup when BERTPROF_TRACE is set. */
struct TraceEnvAutostart {
    TraceEnvAutostart()
    {
        TraceRecorder::instance().maybeStartFromEnv();
    }
};

TraceEnvAutostart g_traceEnvAutostart;

void
countIoRetry(std::int64_t retries)
{
    TraceRecorder::instance().counter("io.retry.attempts", retries);
}

/**
 * Dependency inversion: io (below telemetry in the include DAG)
 * exposes a retry sink; this points it at the recorder so every
 * backoff retry lands in the trace as the `io.retry.attempts`
 * counter. Installed at static-init time from the recorder's TU, so
 * any binary that can record gets the wiring.
 */
struct IoRetrySinkInstaller {
    IoRetrySinkInstaller() { installIoRetrySink(&countIoRetry); }
};

const IoRetrySinkInstaller g_ioRetrySinkInstaller;

} // namespace

} // namespace bertprof
