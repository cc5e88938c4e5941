#include "telemetry/trace_writer.h"

#include "io/crc32.h"
#include "telemetry/compress.h"
#include "telemetry/varint.h"
#include "util/logging.h"

namespace bertprof {

namespace {

void
putU32(std::string &out, std::uint32_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

void
putU64(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

} // namespace

const char *
traceEventTypeName(TraceEventType type)
{
    switch (type) {
    case TraceEventType::Kernel:
        return "kernel";
    case TraceEventType::TrainStep:
        return "step";
    case TraceEventType::Checkpoint:
        return "checkpoint";
    case TraceEventType::ServeBatch:
        return "serve-batch";
    case TraceEventType::Counter:
        return "counter";
    case TraceEventType::Gauge:
        return "gauge";
    case TraceEventType::Mark:
        return "mark";
    }
    return "unknown";
}

void
encodeTraceEvent(std::string &out, const TraceEvent &event,
                 std::int64_t prevTsNs)
{
    out.push_back(static_cast<char>(event.type));
    putVarint(out, event.tid);
    putZigzag(out, event.tsNs - prevTsNs);
    putVarint(out, event.nameId);
    out.push_back(static_cast<char>(event.a));
    out.push_back(static_cast<char>(event.b));
    out.push_back(static_cast<char>(event.c));
    out.push_back(static_cast<char>(event.d));
    putZigzag(out, event.v0);
    putZigzag(out, event.v1);
    putZigzag(out, event.v2);
    putZigzag(out, event.v3);
}

bool
decodeTraceEvent(const char *data, std::size_t size, std::size_t &pos,
                 std::int64_t &prevTsNs, TraceEvent &out)
{
    if (pos >= size)
        return false;
    const std::uint8_t type = static_cast<std::uint8_t>(data[pos++]);
    if (type < static_cast<std::uint8_t>(TraceEventType::Kernel) ||
        type > static_cast<std::uint8_t>(TraceEventType::Mark)) {
        return false;
    }
    out.type = static_cast<TraceEventType>(type);
    std::uint64_t tid = 0, nameId = 0;
    std::int64_t delta = 0;
    if (!getVarint(data, size, pos, tid) ||
        !getZigzag(data, size, pos, delta) ||
        !getVarint(data, size, pos, nameId)) {
        return false;
    }
    if (tid > 0xff || nameId > 0xffffffffull)
        return false;
    if (pos + 4 > size)
        return false;
    out.tid = static_cast<std::uint8_t>(tid);
    out.tsNs = prevTsNs + delta;
    prevTsNs = out.tsNs;
    out.nameId = static_cast<std::uint32_t>(nameId);
    out.a = static_cast<std::uint8_t>(data[pos++]);
    out.b = static_cast<std::uint8_t>(data[pos++]);
    out.c = static_cast<std::uint8_t>(data[pos++]);
    out.d = static_cast<std::uint8_t>(data[pos++]);
    return getZigzag(data, size, pos, out.v0) &&
           getZigzag(data, size, pos, out.v1) &&
           getZigzag(data, size, pos, out.v2) &&
           getZigzag(data, size, pos, out.v3);
}

IoStatus
TraceWriter::open(const std::string &path)
{
    IoStatus status = file_.open(path);
    if (!status.ok())
        return status;
    namesEmitted_ = 0;
    chunksWritten_ = 0;
    eventsWritten_ = 0;
    rawPayloadBytes_ = 0;
    failed_ = false;

    std::string header;
    header.reserve(kTraceFileHeaderSize);
    putU32(header, kTraceMagic);
    putU32(header, kTraceFormatVersion);
    putU64(header, 0); // flags
    status = file_.append(header.data(), header.size());
    if (!status.ok()) {
        failed_ = true;
        // Cleanup after a failed header append: the first error is
        // the one worth reporting, not the close of a dead file.
        // bplint: allow(must-check-io)
        file_.close();
    }
    return status;
}

IoStatus
TraceWriter::appendChunk(const std::vector<TraceEvent> &events,
                         const std::vector<std::string> &names)
{
    if (failed_) {
        return IoStatus::failure(IoError::WriteFailed,
                                 "trace writer already failed; "
                                 "container tail is torn");
    }
    if (!file_.isOpen()) {
        return IoStatus::failure(IoError::OpenFailed,
                                 "trace writer is not open");
    }
    if (events.empty())
        return IoStatus::success();
    BP_REQUIRE(namesEmitted_ <= names.size());

    // Payload: new name-table entries, then packed events.
    std::string raw;
    raw.reserve(events.size() * 32);
    const std::size_t newNames = names.size() - namesEmitted_;
    putVarint(raw, newNames);
    for (std::size_t i = namesEmitted_; i < names.size(); ++i) {
        putVarint(raw, names[i].size());
        raw.append(names[i]);
    }
    const std::int64_t baseNs = events.front().tsNs;
    std::int64_t prev = baseNs;
    for (const TraceEvent &event : events) {
        BP_REQUIRE(event.nameId < names.size());
        encodeTraceEvent(raw, event, prev);
        prev = event.tsNs;
    }

    TraceCodec codec = TraceCodec::Raw;
    const std::string comp = compressBlockAuto(raw, codec);

    // Header: crc covers everything after the crc field itself.
    std::string chunk;
    chunk.reserve(kTraceChunkHeaderSize + comp.size());
    putU32(chunk, kTraceChunkMagic);
    putU32(chunk, 0); // crc placeholder
    putU32(chunk, static_cast<std::uint32_t>(codec));
    putU32(chunk, static_cast<std::uint32_t>(events.size()));
    putU32(chunk, static_cast<std::uint32_t>(newNames));
    putU32(chunk, 0); // reserved
    putU64(chunk, raw.size());
    putU64(chunk, comp.size());
    putU64(chunk, static_cast<std::uint64_t>(baseNs));
    chunk.append(comp);
    const std::uint32_t crc =
        crc32(chunk.data() + 8, chunk.size() - 8);
    chunk[4] = static_cast<char>(crc & 0xff);
    chunk[5] = static_cast<char>((crc >> 8) & 0xff);
    chunk[6] = static_cast<char>((crc >> 16) & 0xff);
    chunk[7] = static_cast<char>((crc >> 24) & 0xff);

    IoStatus status = file_.append(chunk.data(), chunk.size());
    if (status.ok())
        status = file_.sync();
    if (!status.ok()) {
        failed_ = true;
        return status;
    }
    namesEmitted_ = names.size();
    ++chunksWritten_;
    eventsWritten_ += static_cast<std::int64_t>(events.size());
    rawPayloadBytes_ += static_cast<std::int64_t>(raw.size());
    return IoStatus::success();
}

IoStatus
TraceWriter::close()
{
    if (!file_.isOpen())
        return IoStatus::success();
    IoStatus status = IoStatus::success();
    if (!failed_)
        status = file_.sync();
    const IoStatus closed = file_.close();
    return status.ok() ? closed : status;
}

} // namespace bertprof
