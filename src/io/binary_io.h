/**
 * @file
 * Little-endian binary serialization plus the crash-safe file
 * container every checkpoint rides in.
 *
 * Container layout (all integers little-endian):
 *
 *   u32  magic   0x314B5042 ("BPK1")
 *   u32  version format version of the payload
 *   u64  payload size in bytes
 *   u32  crc32   CRC-32 of the payload bytes
 *   ...  payload
 *
 * writeFileAtomic() follows the standard crash-safe protocol: write
 * to `<path>.tmp`, fflush + fsync, then rename(2) over `path` — a
 * reader never observes a half-written file under POSIX rename
 * atomicity, and a crash at any instant leaves either the old file or
 * the new one, never a blend. readFileValidated() checks magic,
 * version, length, and CRC before a single payload byte is trusted,
 * returning typed IoStatus errors instead of aborting.
 *
 * Fault-injection sites (runtime/fault_injection.h): `io.write`
 * (torn / ioerr), `io.commit` (torn = crash before rename), and
 * `io.read` (ioerr) — the hooks the robustness tests use to prove
 * the recovery paths.
 */

#ifndef BERTPROF_IO_BINARY_IO_H
#define BERTPROF_IO_BINARY_IO_H

#include <cstdint>
#include <functional>
#include <string>

#include "io/io_status.h"

namespace bertprof {

/** Growable little-endian binary buffer. */
class BinaryWriter
{
  public:
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    /** Exact bit pattern — round-trips are bitwise. */
    void f32(float v);
    /** Exact bit pattern — round-trips are bitwise. */
    void f64(double v);
    /** Length-prefixed (u32) byte string. */
    void str(const std::string &s);
    /** Raw bytes, no length prefix. */
    void bytes(const void *data, std::size_t size);

    const std::string &buffer() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Sequential reader over an in-memory payload. The first underrun
 * latches failed(); every later read returns zero values, so callers
 * may decode a whole record and check once.
 */
class BinaryReader
{
  public:
    explicit BinaryReader(std::string data) : data_(std::move(data)) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    float f32();
    double f64();
    std::string str();
    /** Copy `size` raw bytes into `out`. */
    void bytes(void *out, std::size_t size);

    bool failed() const { return failed_; }
    std::size_t remaining() const { return data_.size() - pos_; }

  private:
    bool take(void *out, std::size_t size);

    std::string data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/** Format version stamped into the container header. */
constexpr std::uint32_t kCheckpointFormatVersion = 1;

/**
 * Crash-safely replace `path` with header + payload (temp file,
 * flush, fsync, atomic rename). Returns typed errors; on failure the
 * previous contents of `path` are untouched.
 */
IoStatus writeFileAtomic(const std::string &path,
                         const std::string &payload,
                         std::uint32_t version = kCheckpointFormatVersion);

/**
 * Read and validate a container written by writeFileAtomic(),
 * leaving the payload in `payloadOut`. Magic, version, declared
 * length, and CRC are all checked first; any mismatch is a typed
 * error and `payloadOut` is left empty.
 */
IoStatus readFileValidated(const std::string &path,
                           std::string &payloadOut,
                           std::uint32_t version = kCheckpointFormatVersion);

/**
 * Checked whole-file text write for exporters (CSV, traces): builds
 * on the same error taxonomy but without the binary container or the
 * temp-file dance (reports are not crash-critical).
 */
IoStatus writeTextFile(const std::string &path, const std::string &content);

/**
 * Bounded retry-with-backoff policy for flaky storage. The delay
 * before retry i (1-based) is
 *
 *   min(backoffMs * 2^(i-1), maxBackoffMs) * (1 - jitter/2 + jitter*u)
 *
 * where u in [0, 1) is drawn from a splitmix64 stream keyed by
 * (seed, i) — deterministic and wall-clock-free, so two processes
 * started with different seeds decorrelate their retry storms while
 * any single run replays identically.
 */
struct RetryPolicy {
    /** Total tries, including the first (>= 1). */
    int attempts = 3;
    /** Base delay before the first retry, in milliseconds. */
    double backoffMs = 1.0;
    /** Cap on the exponential growth, in milliseconds. */
    double maxBackoffMs = 1000.0;
    /** Multiplicative jitter width in [0, 1]; 0 = pure exponential. */
    double jitter = 0.5;
    /** Seed for the deterministic jitter stream. */
    std::uint64_t seed = 0;
};

/**
 * Retry-attempt observer, installed by the telemetry layer (which
 * sits above io in the include DAG) so retries show up as the
 * `io.retry.attempts` counter without io depending on telemetry.
 * Called once per *retry* (not per first try) with count 1; nullptr
 * uninstalls. The installed sink must be thread-safe.
 */
using IoRetrySink = void (*)(std::int64_t retries);
void installIoRetrySink(IoRetrySink sink);

/**
 * Run `op` up to policy.attempts times, backing off per `policy`, as
 * long as it keeps failing with IoError::Transient. Any other outcome
 * (success or a permanent error) returns immediately. Each retry is
 * reported to the installed IoRetrySink, if any.
 */
IoStatus withRetries(const RetryPolicy &policy,
                     const std::function<IoStatus()> &op);

} // namespace bertprof

#endif // BERTPROF_IO_BINARY_IO_H
