// Raw fopen/fwrite/fread live here by design: src/io is the one layer
// allowed to touch files directly (bplint rule unchecked-io), and the
// C stdio API gives us the explicit fflush + fsync + rename sequence
// crash safety needs.

#include "io/binary_io.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "io/crc32.h"
#include "runtime/fault_injection.h"
#include "util/logging.h"

namespace bertprof {

namespace {

constexpr std::uint32_t kMagic = 0x314B5042u; // "BPK1" little-endian

void
putLe(std::string &buf, const void *data, std::size_t size)
{
    // Host is assumed little-endian (x86/ARM Linux); the magic check
    // on read rejects cross-endian files outright rather than
    // misreading them.
    buf.append(static_cast<const char *>(data), size);
}

/** fsync the directory containing `path` so the rename is durable. */
void
syncParentDir(const std::string &path)
{
    std::string dir = ".";
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos)
        dir = path.substr(0, slash == 0 ? 1 : slash);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

void
BinaryWriter::u8(std::uint8_t v)
{
    putLe(buf_, &v, sizeof v);
}

void
BinaryWriter::u32(std::uint32_t v)
{
    putLe(buf_, &v, sizeof v);
}

void
BinaryWriter::u64(std::uint64_t v)
{
    putLe(buf_, &v, sizeof v);
}

void
BinaryWriter::i64(std::int64_t v)
{
    putLe(buf_, &v, sizeof v);
}

void
BinaryWriter::f32(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
}

void
BinaryWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
BinaryWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
}

void
BinaryWriter::bytes(const void *data, std::size_t size)
{
    buf_.append(static_cast<const char *>(data), size);
}

bool
BinaryReader::take(void *out, std::size_t size)
{
    if (failed_ || pos_ + size > data_.size()) {
        failed_ = true;
        std::memset(out, 0, size);
        return false;
    }
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return true;
}

std::uint8_t
BinaryReader::u8()
{
    std::uint8_t v = 0;
    take(&v, sizeof v);
    return v;
}

std::uint32_t
BinaryReader::u32()
{
    std::uint32_t v = 0;
    take(&v, sizeof v);
    return v;
}

std::uint64_t
BinaryReader::u64()
{
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
}

std::int64_t
BinaryReader::i64()
{
    std::int64_t v = 0;
    take(&v, sizeof v);
    return v;
}

float
BinaryReader::f32()
{
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

double
BinaryReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
BinaryReader::str()
{
    const std::uint32_t size = u32();
    if (failed_ || pos_ + size > data_.size()) {
        failed_ = true;
        return "";
    }
    std::string s = data_.substr(pos_, size);
    pos_ += size;
    return s;
}

void
BinaryReader::bytes(void *out, std::size_t size)
{
    take(out, size);
}

IoStatus
writeFileAtomic(const std::string &path, const std::string &payload,
                std::uint32_t version)
{
    const FaultKind fault = faultAt("io.write");
    if (fault == FaultKind::IoError) {
        return IoStatus::failure(
            IoError::Transient,
            "transient write failure injected for " + path);
    }

    std::string file;
    file.reserve(20 + payload.size());
    const std::uint32_t magic = kMagic;
    const std::uint64_t size = payload.size();
    const std::uint32_t crc = crc32(payload);
    putLe(file, &magic, sizeof magic);
    putLe(file, &version, sizeof version);
    putLe(file, &size, sizeof size);
    putLe(file, &crc, sizeof crc);
    file.append(payload);

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        return IoStatus::failure(IoError::OpenFailed,
                                 "cannot open " + tmp + " for writing");
    }
    // A torn write models dying mid-flush: only half the bytes reach
    // the temp file and the commit rename never happens, so the
    // previously committed checkpoint (if any) stays intact.
    const std::size_t to_write =
        fault == FaultKind::TornWrite ? file.size() / 2 : file.size();
    const std::size_t wrote =
        to_write == 0 ? 0 : std::fwrite(file.data(), 1, to_write, f);
    if (fault == FaultKind::TornWrite) {
        std::fclose(f);
        return IoStatus::failure(IoError::WriteFailed,
                                 "torn write injected for " + tmp +
                                     " (file left truncated)");
    }
    if (wrote != file.size()) {
        std::fclose(f);
        std::remove(tmp.c_str());
        return IoStatus::failure(IoError::WriteFailed,
                                 "short write to " + tmp);
    }
    if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
        std::fclose(f);
        std::remove(tmp.c_str());
        return IoStatus::failure(IoError::WriteFailed,
                                 "flush/fsync failed for " + tmp);
    }
    std::fclose(f);

    if (faultAt("io.commit") == FaultKind::TornWrite) {
        return IoStatus::failure(IoError::WriteFailed,
                                 "crash injected between write and "
                                 "rename for " +
                                     path);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return IoStatus::failure(IoError::RenameFailed,
                                 "rename " + tmp + " -> " + path +
                                     " failed");
    }
    syncParentDir(path);
    return IoStatus::success();
}

IoStatus
readFileValidated(const std::string &path, std::string &payloadOut,
                  std::uint32_t version)
{
    payloadOut.clear();
    if (faultAt("io.read") == FaultKind::IoError) {
        return IoStatus::failure(
            IoError::Transient,
            "transient read failure injected for " + path);
    }

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return IoStatus::failure(IoError::NotFound, "cannot open " + path);

    unsigned char header[20];
    const std::size_t got = std::fread(header, 1, sizeof header, f);
    if (got != sizeof header) {
        std::fclose(f);
        return IoStatus::failure(IoError::Truncated,
                                 path + " is shorter than the "
                                        "checkpoint header");
    }
    std::uint32_t magic, file_version, crc;
    std::uint64_t size;
    std::memcpy(&magic, header, 4);
    std::memcpy(&file_version, header + 4, 4);
    std::memcpy(&size, header + 8, 8);
    std::memcpy(&crc, header + 16, 4);
    if (magic != kMagic) {
        std::fclose(f);
        return IoStatus::failure(IoError::BadMagic,
                                 path + " is not a bertprof "
                                        "checkpoint (bad magic)");
    }
    if (file_version != version) {
        std::fclose(f);
        return IoStatus::failure(
            IoError::BadVersion,
            path + " has format version " +
                std::to_string(file_version) + ", expected " +
                std::to_string(version));
    }

    std::string payload(size, '\0');
    const std::size_t read =
        size == 0 ? 0 : std::fread(payload.data(), 1, size, f);
    std::fclose(f);
    if (read != size) {
        return IoStatus::failure(
            IoError::Truncated,
            path + " payload truncated (" + std::to_string(read) +
                " of " + std::to_string(size) + " bytes)");
    }
    if (crc32(payload) != crc) {
        return IoStatus::failure(IoError::BadChecksum,
                                 "payload CRC mismatch in " + path);
    }
    payloadOut = std::move(payload);
    return IoStatus::success();
}

IoStatus
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return IoStatus::failure(IoError::OpenFailed,
                                 "cannot open " + path + " for writing");
    }
    const std::size_t wrote = content.empty()
                                  ? 0
                                  : std::fwrite(content.data(), 1,
                                                content.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (wrote != content.size() || !flushed)
        return IoStatus::failure(IoError::WriteFailed,
                                 "short write to " + path);
    return IoStatus::success();
}

namespace {

std::atomic<IoRetrySink> g_io_retry_sink{nullptr};

/** splitmix64: the standard 64-bit finalizing mixer. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic u in [0, 1) for retry `attempt` under `seed`. */
double
jitterUnit(std::uint64_t seed, int attempt)
{
    const std::uint64_t h =
        splitmix64(seed ^ (static_cast<std::uint64_t>(attempt) *
                           0xd1342543de82ef95ULL));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

void
installIoRetrySink(IoRetrySink sink)
{
    g_io_retry_sink.store(sink, std::memory_order_release);
}

IoStatus
withRetries(const RetryPolicy &policy,
            const std::function<IoStatus()> &op)
{
    BP_REQUIRE(policy.attempts >= 1);
    BP_REQUIRE(policy.backoffMs >= 0.0);
    BP_REQUIRE(policy.jitter >= 0.0 && policy.jitter <= 1.0);
    IoStatus status;
    for (int attempt = 0; attempt < policy.attempts; ++attempt) {
        if (attempt > 0) {
            double ms = policy.backoffMs *
                        static_cast<double>(1ULL << (attempt - 1 < 62
                                                         ? attempt - 1
                                                         : 62));
            if (ms > policy.maxBackoffMs)
                ms = policy.maxBackoffMs;
            if (policy.jitter > 0.0)
                ms *= 1.0 - policy.jitter / 2.0 +
                      policy.jitter * jitterUnit(policy.seed, attempt);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(ms));
            if (IoRetrySink sink =
                    g_io_retry_sink.load(std::memory_order_acquire))
                sink(1);
            BP_LOG(Warn) << "io retry " << attempt << "/"
                         << policy.attempts - 1
                         << " after transient failure: "
                         << status.message;
        }
        status = op();
        if (status.error != IoError::Transient)
            return status;
    }
    return status;
}

const char *
ioErrorName(IoError error)
{
    switch (error) {
    case IoError::None:
        return "ok";
    case IoError::OpenFailed:
        return "open-failed";
    case IoError::WriteFailed:
        return "write-failed";
    case IoError::RenameFailed:
        return "rename-failed";
    case IoError::Transient:
        return "transient";
    case IoError::NotFound:
        return "not-found";
    case IoError::Truncated:
        return "truncated";
    case IoError::BadMagic:
        return "bad-magic";
    case IoError::BadVersion:
        return "bad-version";
    case IoError::BadChecksum:
        return "bad-checksum";
    case IoError::BadFormat:
        return "bad-format";
    }
    return "unknown";
}

std::string
IoStatus::toString() const
{
    if (ok())
        return "ok";
    std::string out = ioErrorName(error);
    if (!message.empty()) {
        out += ": ";
        out += message;
    }
    return out;
}

} // namespace bertprof
