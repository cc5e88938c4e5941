/**
 * @file
 * Trace container + recorder tests: encoding pinning, compression
 * round-trips, container write/read round-trips, forward vs backward
 * iteration, typed rejection of corrupt/foreign/old files, torn-write
 * and preemption (kill@io.write) recovery, multi-threaded recording,
 * and the headline equivalence — a recorded run replays to the exact
 * live Profiler aggregates and byte-identical Chrome JSON.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bertprof.h"

namespace bertprof {
namespace {

namespace fs = std::filesystem;

/** RAII: disarm the process-wide fault injector on scope exit. */
struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::instance().reset(); }
};

/** RAII: stop the process-wide recorder on scope exit. */
struct RecorderGuard {
    ~RecorderGuard() { (void)TraceRecorder::instance().stop(); }
};

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "bp_" + name;
    fs::remove(path);
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TraceEvent
makeEvent(TraceEventType type, std::int64_t tsNs, std::uint32_t nameId,
          std::int64_t v0 = 0, std::int64_t v1 = 0, std::int64_t v2 = 0,
          std::int64_t v3 = 0)
{
    TraceEvent e;
    e.type = type;
    e.tsNs = tsNs;
    e.nameId = nameId;
    e.a = static_cast<std::uint8_t>(nameId + 1);
    e.b = 2;
    e.c = 3;
    e.d = 4;
    e.v0 = v0;
    e.v1 = v1;
    e.v2 = v2;
    e.v3 = v3;
    return e;
}

/** All events of a container in forward order. */
std::vector<TraceEvent>
collectForward(const TraceReader &reader)
{
    std::vector<TraceEvent> out;
    TraceForwardIter it(reader);
    TraceEvent e;
    while (it.next(e))
        out.push_back(e);
    return out;
}

// --------------------------------------------------------------------
// Event encoding
// --------------------------------------------------------------------

TEST(TraceFormat, EventEncodingIsPinned)
{
    TraceEvent e;
    e.type = TraceEventType::Kernel;
    e.tid = 2;
    e.tsNs = 1000; // prev 900 -> delta 100 -> zigzag 200
    e.nameId = 3;
    e.a = 1;
    e.b = 2;
    e.c = 3;
    e.d = 4;
    e.v0 = -1;  // zigzag 1
    e.v1 = 1;   // zigzag 2
    e.v2 = 300; // zigzag 600
    e.v3 = 0;

    std::string out;
    encodeTraceEvent(out, e, 900);
    const unsigned char want[] = {1, 2, 0xC8, 0x01, 3, 1, 2,
                                  3, 4, 1,    2,    0xD8, 0x04, 0};
    ASSERT_EQ(out.size(), sizeof want);
    EXPECT_EQ(std::memcmp(out.data(), want, sizeof want), 0);

    // And it decodes back, carrying the running timestamp.
    std::size_t pos = 0;
    std::int64_t prev = 900;
    TraceEvent back;
    ASSERT_TRUE(
        decodeTraceEvent(out.data(), out.size(), pos, prev, back));
    EXPECT_EQ(pos, out.size());
    EXPECT_EQ(prev, 1000);
    EXPECT_TRUE(back == e);
}

TEST(TraceFormat, DecodeRejectsTruncationAtEveryPrefix)
{
    TraceEvent e = makeEvent(TraceEventType::Gauge, -5000, 7,
                             0x7fffffffffffffffLL, -42, 1, -1);
    std::string out;
    encodeTraceEvent(out, e, 0);
    for (std::size_t cut = 0; cut < out.size(); ++cut) {
        std::size_t pos = 0;
        std::int64_t prev = 0;
        TraceEvent back;
        EXPECT_FALSE(
            decodeTraceEvent(out.data(), cut, pos, prev, back))
            << "prefix of " << cut << " bytes decoded";
    }
}

// --------------------------------------------------------------------
// Block compression
// --------------------------------------------------------------------

TEST(TraceCompress, AllCodecsRoundTrip)
{
    // Compressible: repeated structure (LZ should win), runs (RLE
    // beats raw), and incompressible pseudo-random bytes (raw wins).
    std::string structured;
    for (int i = 0; i < 200; ++i)
        structured += "kernel.gemm.fwd/" + std::to_string(i % 7);
    std::string runs(4096, '\0');
    std::string random;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 3000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        random.push_back(static_cast<char>(x & 0xff));
    }

    for (const std::string &input : {structured, runs, random,
                                     std::string()}) {
        for (TraceCodec codec :
             {TraceCodec::Raw, TraceCodec::Rle, TraceCodec::Lz}) {
            const std::string comp = compressBlock(input, codec);
            std::string back;
            ASSERT_TRUE(decompressBlock(comp.data(), comp.size(),
                                        codec, input.size(), back))
                << traceCodecName(codec);
            EXPECT_EQ(back, input) << traceCodecName(codec);
        }
        TraceCodec picked = TraceCodec::Raw;
        const std::string comp = compressBlockAuto(input, picked);
        std::string back;
        ASSERT_TRUE(decompressBlock(comp.data(), comp.size(), picked,
                                    input.size(), back));
        EXPECT_EQ(back, input);
        EXPECT_LE(comp.size(),
                  compressBlock(input, TraceCodec::Raw).size());
    }
}

TEST(TraceCompress, DecoderRejectsCorruptPayloads)
{
    std::string input;
    for (int i = 0; i < 500; ++i)
        input += "abcabcabc" + std::to_string(i % 3);
    TraceCodec codec = TraceCodec::Raw;
    std::string comp = compressBlockAuto(input, codec);
    ASSERT_NE(codec, TraceCodec::Raw);

    std::string back;
    // Wrong expected size.
    EXPECT_FALSE(decompressBlock(comp.data(), comp.size(), codec,
                                 input.size() + 1, back));
    // Truncated payload.
    EXPECT_FALSE(decompressBlock(comp.data(), comp.size() / 2, codec,
                                 input.size(), back));
}

// --------------------------------------------------------------------
// Container round-trip
// --------------------------------------------------------------------

TEST(TraceContainer, RoundTripsEventsAndIncrementalNames)
{
    const std::string path = tempPath("trace_roundtrip.bptr");
    std::vector<std::string> names = {"gemm", "softmax"};
    std::vector<TraceEvent> first = {
        makeEvent(TraceEventType::Kernel, 1000, 0, 120, 7, 8, 9),
        makeEvent(TraceEventType::Kernel, 900, 1, -3, 0, 0, 0),
        makeEvent(TraceEventType::Counter, 5000, 0, 1),
    };

    TraceWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    ASSERT_TRUE(writer.appendChunk(first, names).ok());

    // Second chunk introduces a new name; ids stay dense.
    names.push_back("layernorm");
    std::vector<TraceEvent> second = {
        makeEvent(TraceEventType::Kernel, 7000, 2, 55, 1, 2, 3),
        makeEvent(TraceEventType::Mark, 7100, 1),
    };
    ASSERT_TRUE(writer.appendChunk(second, names).ok());
    ASSERT_TRUE(writer.close().ok());
    EXPECT_EQ(writer.chunksWritten(), 2);
    EXPECT_EQ(writer.eventsWritten(), 5);

    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    EXPECT_FALSE(reader.truncatedTail());
    ASSERT_EQ(reader.chunkCount(), 2u);
    EXPECT_EQ(reader.eventCount(), 5);
    ASSERT_EQ(reader.names().size(), 3u);
    EXPECT_EQ(reader.name(0), "gemm");
    EXPECT_EQ(reader.name(2), "layernorm");
    EXPECT_EQ(reader.name(99), "<unknown>");
    EXPECT_EQ(reader.chunk(1).firstNameId, 2u);

    std::vector<TraceEvent> expected = first;
    expected.insert(expected.end(), second.begin(), second.end());
    const std::vector<TraceEvent> got = collectForward(reader);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(got[i] == expected[i]) << "event " << i;
}

TEST(TraceContainer, BackwardIterationIsExactReverse)
{
    const std::string path = tempPath("trace_backward.bptr");
    const std::vector<std::string> names = {"k"};
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    std::int64_t ts = 0;
    for (int chunk = 0; chunk < 4; ++chunk) {
        std::vector<TraceEvent> events;
        for (int i = 0; i < 37; ++i) {
            ts += 13 + i;
            events.push_back(
                makeEvent(TraceEventType::Kernel, ts, 0, i, chunk));
        }
        ASSERT_TRUE(writer.appendChunk(events, names).ok());
    }
    ASSERT_TRUE(writer.close().ok());

    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    const std::vector<TraceEvent> forward = collectForward(reader);
    ASSERT_EQ(forward.size(), 4u * 37u);

    TraceBackwardIter it(reader);
    TraceEvent e;
    std::size_t i = forward.size();
    while (it.prev(e)) {
        ASSERT_GT(i, 0u);
        --i;
        EXPECT_TRUE(e == forward[i]) << "reverse position " << i;
    }
    EXPECT_EQ(i, 0u);
}

// --------------------------------------------------------------------
// Typed rejection + torn tails
// --------------------------------------------------------------------

TEST(TraceContainer, RejectsForeignShortAndVersionedFiles)
{
    const std::string path = tempPath("trace_reject.bptr");
    TraceReader reader;

    writeFile(path, "short");
    EXPECT_EQ(reader.open(path).error, IoError::Truncated);

    writeFile(path, std::string(64, 'x'));
    EXPECT_EQ(reader.open(path).error, IoError::BadMagic);

    // Valid container, then bump the version field (offset 4).
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    ASSERT_TRUE(writer
                    .appendChunk({makeEvent(TraceEventType::Mark, 1, 0)},
                                 {"m"})
                    .ok());
    ASSERT_TRUE(writer.close().ok());
    std::string bytes = readFile(path);
    bytes[4] = 99;
    writeFile(path, bytes);
    EXPECT_EQ(reader.open(path).error, IoError::BadVersion);
}

TEST(TraceContainer, CorruptTailIsDroppedNotFatal)
{
    const std::string path = tempPath("trace_corrupt.bptr");
    const std::vector<std::string> names = {"k"};
    std::vector<TraceEvent> events;
    for (int i = 0; i < 50; ++i)
        events.push_back(
            makeEvent(TraceEventType::Kernel, 100 * i, 0, i));

    TraceWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    ASSERT_TRUE(writer.appendChunk(events, names).ok());
    const std::size_t goodEnd = readFile(path).size();
    ASSERT_TRUE(writer.appendChunk(events, names).ok());
    ASSERT_TRUE(writer.close().ok());

    // Flip one payload byte of the second chunk: its CRC fails, the
    // first chunk still replays.
    std::string bytes = readFile(path);
    bytes[goodEnd + kTraceChunkHeaderSize + 3] ^= 0x40;
    writeFile(path, bytes);

    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    EXPECT_TRUE(reader.truncatedTail());
    EXPECT_EQ(reader.tailStatus().error, IoError::BadChecksum);
    EXPECT_EQ(reader.chunkCount(), 1u);
    EXPECT_EQ(collectForward(reader).size(), 50u);

    // Chop the file mid-chunk instead: a torn payload tail.
    writeFile(path, readFile(path).substr(0, goodEnd + 20));
    ASSERT_TRUE(reader.open(path).ok());
    EXPECT_TRUE(reader.truncatedTail());
    EXPECT_EQ(reader.tailStatus().error, IoError::Truncated);
    EXPECT_EQ(reader.chunkCount(), 1u);
}

TEST(TraceContainer, TornWriteLosesAtMostTheOpenChunk)
{
    InjectorGuard guard;
    const std::string path = tempPath("trace_torn.bptr");
    const std::vector<std::string> names = {"k"};
    std::vector<TraceEvent> events;
    for (int i = 0; i < 80; ++i)
        events.push_back(
            makeEvent(TraceEventType::Kernel, 100 * i, 0, i));

    // io.write occurrence 1 is the file header, 2 the first chunk;
    // tear the second chunk's append mid-body.
    FaultInjector::instance().configure("torn@io.write:3");
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    ASSERT_TRUE(writer.appendChunk(events, names).ok());
    const IoStatus torn = writer.appendChunk(events, names);
    EXPECT_EQ(torn.error, IoError::WriteFailed);
    EXPECT_TRUE(writer.failed());
    // The writer never trusts the tail again.
    EXPECT_EQ(writer.appendChunk(events, names).error,
              IoError::WriteFailed);
    (void)writer.close();

    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    EXPECT_TRUE(reader.truncatedTail());
    EXPECT_EQ(reader.chunkCount(), 1u);
    EXPECT_EQ(collectForward(reader).size(), 80u);
}

TEST(TraceContainer, CommitFaultLatchesTheWriter)
{
    InjectorGuard guard;
    const std::string path = tempPath("trace_commit.bptr");
    FaultInjector::instance().configure("torn@io.commit:1");
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    const IoStatus status = writer.appendChunk(
        {makeEvent(TraceEventType::Mark, 1, 0)}, {"m"});
    EXPECT_EQ(status.error, IoError::WriteFailed);
    EXPECT_TRUE(writer.failed());
}

TEST(TraceContainer, EverySealedChunkIsSyncedBeforeAppendReturns)
{
    InjectorGuard guard;
    const std::string path = tempPath("trace_sync.bptr");
    // A plan that never fires still makes the injector count sites.
    FaultInjector::instance().configure("torn@io.commit:1000");
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    const std::int64_t before =
        FaultInjector::instance().hits("io.commit");
    for (int chunk = 1; chunk <= 3; ++chunk) {
        ASSERT_TRUE(writer
                        .appendChunk({makeEvent(TraceEventType::Mark,
                                                chunk, 0)},
                                     {"m"})
                        .ok());
        EXPECT_EQ(FaultInjector::instance().hits("io.commit") - before,
                  chunk);
    }
    EXPECT_TRUE(writer.close().ok());
}

/**
 * Preemption while appending: the injector's Kill executes
 * std::_Exit(137) at the io.write site, so nothing of the in-flight
 * chunk lands and the file ends exactly after the last sealed chunk.
 * threadsafe death tests fork+exec, so the child really dies and the
 * parent can then replay what survived on disk.
 */
TEST(TraceContainerDeathTest, KillAtIoWriteLeavesReplayableChunks)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = ::testing::TempDir() + "bp_trace_kill.bptr";
    const std::vector<std::string> names = {"k"};
    std::vector<TraceEvent> events;
    for (int i = 0; i < 25; ++i)
        events.push_back(
            makeEvent(TraceEventType::Kernel, 40 * i, 0, i));

    EXPECT_EXIT(
        {
            // Child: header write is occurrence 1, chunks 1 and 2 are
            // occurrences 2 and 3; die entering the third chunk.
            fs::remove(path);
            FaultInjector::instance().configure("kill@io.write:4");
            TraceWriter writer;
            if (!writer.open(path).ok())
                std::_Exit(3);
            for (int chunk = 0; chunk < 10; ++chunk)
                (void)writer.appendChunk(events, names);
        },
        ::testing::ExitedWithCode(137), "");

    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    EXPECT_FALSE(reader.truncatedTail());
    EXPECT_EQ(reader.chunkCount(), 2u);
    EXPECT_EQ(collectForward(reader).size(), 2u * 25u);
}

// --------------------------------------------------------------------
// Recorder
// --------------------------------------------------------------------

TEST(TraceRecorderTest, RejectsDoubleStartAndEmptyPath)
{
    RecorderGuard guard;
    TraceRecorder &recorder = TraceRecorder::instance();
    EXPECT_EQ(recorder.start(RecorderOptions{}).error,
              IoError::OpenFailed);

    RecorderOptions options;
    options.path = tempPath("trace_double.bptr");
    ASSERT_TRUE(recorder.start(options).ok());
    EXPECT_TRUE(recorder.recording());
    EXPECT_EQ(recorder.start(options).error, IoError::OpenFailed);
    ASSERT_TRUE(recorder.stop().ok());
    EXPECT_FALSE(recorder.recording());
    // stop() is idempotent.
    EXPECT_TRUE(recorder.stop().ok());
}

TEST(TraceRecorderTest, EightThreadsRecordWithoutLossOrTearing)
{
    RecorderGuard guard;
    const std::string path = tempPath("trace_threads.bptr");
    TraceRecorder &recorder = TraceRecorder::instance();
    RecorderOptions options;
    options.path = path;
    options.ringEvents = 256; // force flusher wakeups mid-run
    options.chunkBytes = 16 * 1024; // and multiple sealed chunks
    ASSERT_TRUE(recorder.start(options).ok());

    constexpr int kThreads = 8;
    constexpr int kPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorder, t] {
            const std::string name =
                "worker." + std::to_string(t);
            ProfileRecord rec;
            rec.name = name;
            rec.kind = OpKind::Gemm;
            rec.phase = Phase::Fwd;
            rec.scope = LayerScope::Transformer;
            rec.sub = SubLayer::AttnLinear;
            rec.stats.flops = 64;
            for (int i = 0; i < kPerThread; ++i) {
                recorder.counter(name, 2);
                // Per-thread streams must be stamped monotonically
                // (live events always are) — the flusher skips the
                // time-sort for single-producer drains.
                const std::int64_t now =
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count();
                recorder.onKernel(rec, now, 250);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const std::int64_t recorded = recorder.eventsRecorded();
    ASSERT_TRUE(recorder.stop().ok());
    EXPECT_EQ(recorder.eventsDropped(), 0);
    EXPECT_EQ(recorded, kThreads * kPerThread * 2);

    ReplaySummary summary;
    ASSERT_TRUE(replayTrace(path, summary).ok());
    EXPECT_FALSE(summary.truncatedTail);
    EXPECT_EQ(summary.eventCount, recorded);
    EXPECT_EQ(summary.kernels.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(summary.counterTotals.at("worker." +
                                           std::to_string(t)),
                  2 * kPerThread);
    }
    // Within each chunk the flusher time-sorts interleaved producers.
    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    for (std::size_t c = 0; c < reader.chunkCount(); ++c) {
        std::vector<TraceEvent> events;
        ASSERT_TRUE(reader.readChunk(c, events).ok());
        for (std::size_t i = 1; i < events.size(); ++i)
            EXPECT_LE(events[i - 1].tsNs, events[i].tsNs);
    }
}

TEST(TraceRecorderTest, StartsFromEnvKnobs)
{
    // maybeStartFromEnv is one-shot per process and the suite runs
    // with no BERTPROF_TRACE set, so exercise the parsing path only:
    // a second call must be a no-op even with the variable set.
    RecorderGuard guard;
    TraceRecorder &recorder = TraceRecorder::instance();
    recorder.maybeStartFromEnv();
    EXPECT_FALSE(recorder.recording());
}

// --------------------------------------------------------------------
// Live vs replayed equivalence (the acceptance bar)
// --------------------------------------------------------------------

BertConfig
nanoConfig()
{
    BertConfig c;
    c.name = "bert-nano";
    c.numLayers = 1;
    c.dModel = 16;
    c.numHeads = 2;
    c.dFf = 32;
    c.vocabSize = 64;
    c.maxPositions = 16;
    c.batch = 2;
    c.seqLen = 8;
    c.maxPredictions = 2;
    return c;
}

void
expectAggregatesIdentical(
    const std::map<std::string, ProfileAggregate> &live,
    const std::map<std::string, ProfileAggregate> &replayed)
{
    ASSERT_EQ(live.size(), replayed.size());
    for (const auto &[key, agg] : live) {
        const auto it = replayed.find(key);
        ASSERT_NE(it, replayed.end()) << key;
        // Bit-identical, not approximately equal: the container
        // stores the integer-ns durations the live seconds were
        // derived from.
        EXPECT_EQ(agg.seconds, it->second.seconds) << key;
        EXPECT_EQ(agg.stats.flops, it->second.stats.flops) << key;
        EXPECT_EQ(agg.stats.bytesRead, it->second.stats.bytesRead)
            << key;
        EXPECT_EQ(agg.stats.bytesWritten,
                  it->second.stats.bytesWritten)
            << key;
        EXPECT_EQ(agg.kernelCount, it->second.kernelCount) << key;
    }
}

TEST(TelemetryReplay, RecordedRunReplaysToExactLiveAggregates)
{
    RecorderGuard guard;
    const std::string path = tempPath("trace_live.bptr");
    const BertConfig config = nanoConfig();

    NnRuntime rt;
    Profiler live;
    rt.profiler = &live;
    BertPretrainer model(config, &rt);
    Rng init(1234);
    model.initialize(init);
    SyntheticDataset dataset(config, 77);
    // The optimizer profiles through its own pointer; attach the same
    // live profiler everywhere so live and trace see identical sets.
    Lamb lamb{OptimizerConfig{}, &live};
    GradScaler scaler(1024.0f);
    LrSchedule schedule(1e-3f, 2, 100, DecayKind::Linear);
    Trainer trainer(model, lamb, scaler, schedule, dataset, rt);

    TraceRecorder &recorder = TraceRecorder::instance();
    RecorderOptions options;
    options.path = path;
    ASSERT_TRUE(recorder.start(options).ok());
    std::vector<TrainStepResult> results;
    for (int i = 0; i < 3; ++i)
        results.push_back(trainer.trainStep());
    ASSERT_TRUE(recorder.stop().ok());

    ReplaySummary summary;
    ASSERT_TRUE(replayTrace(path, summary).ok());
    EXPECT_FALSE(summary.truncatedTail);

    // Every live kernel replays field-for-field.
    ASSERT_EQ(summary.kernels.size(), live.records().size());
    ASSERT_EQ(summary.kernelEndNs.size(), summary.kernels.size());
    for (std::size_t i = 0; i < summary.kernels.size(); ++i) {
        const ProfileRecord &a = live.records()[i];
        const ProfileRecord &b = summary.kernels[i];
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.phase, b.phase) << i;
        EXPECT_EQ(a.scope, b.scope) << i;
        EXPECT_EQ(a.sub, b.sub) << i;
        EXPECT_EQ(a.stats.flops, b.stats.flops) << i;
        EXPECT_EQ(a.stats.bytesRead, b.stats.bytesRead) << i;
        EXPECT_EQ(a.stats.bytesWritten, b.stats.bytesWritten) << i;
        EXPECT_EQ(a.seconds, b.seconds) << i; // bit-identical
    }

    // Fig. 3 / Fig. 4 aggregates are exactly the live ones.
    Profiler replayed;
    summary.fillProfiler(replayed);
    EXPECT_EQ(live.totalSeconds(), replayed.totalSeconds());
    expectAggregatesIdentical(live.byScope(), replayed.byScope());
    expectAggregatesIdentical(live.bySubLayer(),
                              replayed.bySubLayer());
    expectAggregatesIdentical(live.byPhase(), replayed.byPhase());

    // And the exported Chrome JSON is byte-identical.
    EXPECT_EQ(profileToChromeJson(live.records()),
              profileToChromeJson(replayed.records()));
    EXPECT_EQ(profileToCsv(live.records()).render(),
              profileToCsv(replayed.records()).render());

    // Step events round-trip too, with bit-exact loss/lr floats.
    ASSERT_EQ(summary.steps.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(summary.steps[i].step,
                  static_cast<std::int64_t>(i));
        EXPECT_EQ(summary.steps[i].status,
                  static_cast<int>(results[i].status));
        EXPECT_EQ(summary.steps[i].loss,
                  static_cast<float>(results[i].metrics.totalLoss()));
        EXPECT_EQ(summary.steps[i].lr, results[i].lr);
    }
}

TEST(TelemetryReplay, ServeAndScalarEventsRoundTrip)
{
    RecorderGuard guard;
    const std::string path = tempPath("trace_serve.bptr");
    TraceRecorder &recorder = TraceRecorder::instance();
    RecorderOptions options;
    options.path = path;
    ASSERT_TRUE(recorder.start(options).ok());
    recorder.onServeBatch(1200, 3400, 4, 128, 70000);
    recorder.onCheckpoint(17, true, 5000000);
    recorder.gauge("serve.queue_depth", -2.5);
    recorder.mark("warmup.done");
    ASSERT_TRUE(recorder.stop().ok());

    ReplaySummary summary;
    ASSERT_TRUE(replayTrace(path, summary).ok());
    ASSERT_EQ(summary.serveBatches.size(), 1u);
    const ReplayServeBatch &batch = summary.serveBatches[0];
    EXPECT_EQ(batch.queueSeconds, 1200 * 1e-9);
    EXPECT_EQ(batch.computeSeconds, 3400 * 1e-9);
    EXPECT_EQ(batch.batchSize, 4);
    EXPECT_EQ(batch.paddedLen, 128);
    EXPECT_EQ(batch.queueDepth, 70000); // u32 lanes survive >255
    ASSERT_EQ(summary.checkpoints.size(), 1u);
    EXPECT_EQ(summary.checkpoints[0].step, 17);
    EXPECT_TRUE(summary.checkpoints[0].ok);
    EXPECT_EQ(summary.gauges.at("serve.queue_depth"), -2.5);
    EXPECT_EQ(summary.markCount, 1);
}

} // namespace
} // namespace bertprof
