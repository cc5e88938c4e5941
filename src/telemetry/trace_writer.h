/**
 * @file
 * Append-side of the trace container: encodes batches of TraceEvents
 * into packed, delta-timestamped, block-compressed chunks and lands
 * them through the crash-safe io layer (AppendFile: unbuffered
 * append + per-chunk fsync, `io.write`/`io.commit` fault sites).
 * One appendChunk() that fails leaves the file with a torn tail the
 * reader skips; the writer then refuses further appends so at most
 * the open chunk is ever lost.
 */

#ifndef BERTPROF_TELEMETRY_TRACE_WRITER_H
#define BERTPROF_TELEMETRY_TRACE_WRITER_H

#include <cstdint>
#include <string>
#include <vector>

#include "io/append_file.h"
#include "telemetry/trace_format.h"

namespace bertprof {

/** Streams chunks of events into a container file. */
class TraceWriter
{
  public:
    /** Create/truncate the container and write the file header. */
    IoStatus open(const std::string &path);

    /**
     * Seal `events` into one chunk. `names` is the full interned
     * name table (dense ids from 0, append-only across the whole
     * recording); the writer emits the entries not yet on disk into
     * this chunk's name section. Event nameIds must be < names.size().
     * The chunk is fsynced before this returns (durability per chunk).
     * After any failure the writer latches failed() and every later
     * append is refused (the tail of the file is no longer trusted).
     */
    IoStatus appendChunk(const std::vector<TraceEvent> &events,
                         const std::vector<std::string> &names);

    /** fsync and close. Idempotent. */
    IoStatus close();

    bool isOpen() const { return file_.isOpen(); }
    bool failed() const { return failed_; }

    std::int64_t chunksWritten() const { return chunksWritten_; }
    std::int64_t eventsWritten() const { return eventsWritten_; }
    /** Bytes of the container on disk (headers + payloads). */
    std::int64_t bytesWritten() const { return file_.bytesWritten(); }
    /** Payload bytes before compression (compression-ratio telemetry). */
    std::int64_t rawPayloadBytes() const { return rawPayloadBytes_; }

  private:
    AppendFile file_;
    std::size_t namesEmitted_ = 0;
    std::int64_t chunksWritten_ = 0;
    std::int64_t eventsWritten_ = 0;
    std::int64_t rawPayloadBytes_ = 0;
    bool failed_ = false;
};

/** Encode one event record (shared with tests for format pinning). */
void encodeTraceEvent(std::string &out, const TraceEvent &event,
                      std::int64_t prevTsNs);

/**
 * Decode one event record from data[pos..size); `prevTsNs` carries
 * the running timestamp. False on truncation/overrun.
 */
bool decodeTraceEvent(const char *data, std::size_t size,
                      std::size_t &pos, std::int64_t &prevTsNs,
                      TraceEvent &out);

} // namespace bertprof

#endif // BERTPROF_TELEMETRY_TRACE_WRITER_H
