/**
 * @file
 * Checkpoint layer tests: CRC vectors, binary round trips, the
 * crash-safe container's rejection taxonomy (truncated / bad magic /
 * bad version / bad checksum), the CheckpointManager's pruning and
 * last-good fallback, and bitwise state round trips for all four
 * optimizers, the grad scaler, the RNG, and whole module trees.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "io/crc32.h"

namespace bertprof {
namespace {

namespace fs = std::filesystem;

/** A fresh (empty) per-test scratch directory under TempDir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "bp_ckpt_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

bool
bitsEqual(const Tensor &a, const Tensor &b)
{
    if (a.numel() != b.numel())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** Overwrite one byte of a file at `offset`. */
void
corruptByte(const std::string &path, std::int64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(offset);
    char c = 0;
    f.read(&c, 1);
    f.seekp(offset);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
}

// --------------------------------------------------------------------
// CRC-32
// --------------------------------------------------------------------

TEST(Crc32, MatchesTheCheckVector)
{
    // The canonical IEEE 802.3 check value for "123456789".
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string("")), 0u);
}

TEST(Crc32, IncrementalEqualsWholeBuffer)
{
    const std::string data = "the quick brown fox jumps over";
    const std::uint32_t whole = crc32(data);
    std::uint32_t inc = 0;
    inc = crc32(data.data(), 10, inc);
    inc = crc32(data.data() + 10, data.size() - 10, inc);
    EXPECT_EQ(inc, whole);
}

// --------------------------------------------------------------------
// BinaryWriter / BinaryReader
// --------------------------------------------------------------------

TEST(BinaryIo, RoundTripsEveryScalarType)
{
    BinaryWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f32(-0.0f);
    w.f64(1.0 / 3.0);
    w.str("hello");

    BinaryReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    const float f = r.f32();
    EXPECT_EQ(std::memcmp(&f, "\x00\x00\x00\x80", 4), 0); // -0.0 bits
    EXPECT_EQ(r.f64(), 1.0 / 3.0);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryIo, UnderrunLatchesFailure)
{
    BinaryWriter w;
    w.u32(7);
    BinaryReader r(w.buffer());
    (void)r.u64(); // asks for more than is there
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.u32(), 0u); // every later read is zero
    EXPECT_TRUE(r.failed());
}

// --------------------------------------------------------------------
// Crash-safe container
// --------------------------------------------------------------------

TEST(Container, WriteReadRoundTrip)
{
    const std::string dir = freshDir("container_rt");
    const std::string path = dir + "/file.bpck";
    std::string payload = "arbitrary bytes: ";
    payload.push_back('\0'); // embedded NULs must survive
    payload.push_back('\x01');
    payload.push_back('\xff');

    ASSERT_TRUE(writeFileAtomic(path, payload).ok());
    std::string got;
    ASSERT_TRUE(readFileValidated(path, got).ok());
    EXPECT_EQ(got, payload);
    // No temp file left behind.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(Container, MissingFileIsNotFound)
{
    const std::string dir = freshDir("container_missing");
    std::string got;
    const IoStatus s = readFileValidated(dir + "/nope.bpck", got);
    EXPECT_EQ(s.error, IoError::NotFound);
}

TEST(Container, TruncatedFileIsRejected)
{
    const std::string dir = freshDir("container_trunc");
    const std::string path = dir + "/file.bpck";
    ASSERT_TRUE(writeFileAtomic(path, std::string(256, 'x')).ok());
    fs::resize_file(path, fs::file_size(path) / 2);
    std::string got;
    const IoStatus s = readFileValidated(path, got);
    EXPECT_EQ(s.error, IoError::Truncated) << s.toString();
    EXPECT_TRUE(got.empty());
}

TEST(Container, HeaderOnlyTruncationIsRejected)
{
    const std::string dir = freshDir("container_header");
    const std::string path = dir + "/file.bpck";
    std::ofstream(path, std::ios::binary) << "BPK";
    std::string got;
    EXPECT_EQ(readFileValidated(path, got).error, IoError::Truncated);
}

TEST(Container, ForeignFileIsBadMagic)
{
    const std::string dir = freshDir("container_magic");
    const std::string path = dir + "/file.bpck";
    std::ofstream(path, std::ios::binary)
        << std::string(64, '\x7f'); // wrong magic, plausible length
    std::string got;
    EXPECT_EQ(readFileValidated(path, got).error, IoError::BadMagic);
}

TEST(Container, VersionMismatchIsRejected)
{
    const std::string dir = freshDir("container_version");
    const std::string path = dir + "/file.bpck";
    ASSERT_TRUE(
        writeFileAtomic(path, "payload", kCheckpointFormatVersion + 9)
            .ok());
    std::string got;
    const IoStatus s = readFileValidated(path, got);
    EXPECT_EQ(s.error, IoError::BadVersion);
    // Reading at the writer's version succeeds.
    EXPECT_TRUE(
        readFileValidated(path, got, kCheckpointFormatVersion + 9).ok());
}

TEST(Container, PayloadCorruptionIsBadChecksum)
{
    const std::string dir = freshDir("container_crc");
    const std::string path = dir + "/file.bpck";
    ASSERT_TRUE(writeFileAtomic(path, std::string(128, 'y')).ok());
    corruptByte(path, 40); // inside the payload, past the 20B header
    std::string got;
    EXPECT_EQ(readFileValidated(path, got).error, IoError::BadChecksum);
}

TEST(Container, RewriteIsAtomicReplacement)
{
    const std::string dir = freshDir("container_replace");
    const std::string path = dir + "/file.bpck";
    ASSERT_TRUE(writeFileAtomic(path, "old").ok());
    ASSERT_TRUE(writeFileAtomic(path, "new").ok());
    std::string got;
    ASSERT_TRUE(readFileValidated(path, got).ok());
    EXPECT_EQ(got, "new");
}

// --------------------------------------------------------------------
// withRetries
// --------------------------------------------------------------------

TEST(WithRetries, RetriesOnlyTransientFailures)
{
    RetryPolicy policy;
    policy.attempts = 5;
    policy.backoffMs = 0.01;
    int calls = 0;
    const IoStatus s = withRetries(policy, [&]() {
        ++calls;
        if (calls < 3)
            return IoStatus::failure(IoError::Transient, "flaky");
        return IoStatus::success();
    });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(calls, 3);

    calls = 0;
    const IoStatus p = withRetries(policy, [&]() {
        ++calls;
        return IoStatus::failure(IoError::BadChecksum, "permanent");
    });
    EXPECT_EQ(p.error, IoError::BadChecksum);
    EXPECT_EQ(calls, 1); // permanent errors are not retried
}

TEST(WithRetries, GivesUpAfterTheAttemptBudget)
{
    RetryPolicy policy;
    policy.attempts = 3;
    policy.backoffMs = 0.01;
    int calls = 0;
    const IoStatus s = withRetries(policy, [&]() {
        ++calls;
        return IoStatus::failure(IoError::Transient, "always");
    });
    EXPECT_EQ(s.error, IoError::Transient);
    EXPECT_EQ(calls, 3);
}

namespace {
std::int64_t g_retrySinkTotal = 0;
void countRetrySink(std::int64_t retries) { g_retrySinkTotal += retries; }
} // namespace

TEST(WithRetries, PolicyFormReportsEachRetryToTheInstalledSink)
{
    g_retrySinkTotal = 0;
    installIoRetrySink(&countRetrySink);
    RetryPolicy policy;
    policy.attempts = 4;
    policy.backoffMs = 0.01;

    int calls = 0;
    const IoStatus s = withRetries(policy, [&]() {
        ++calls;
        if (calls < 3)
            return IoStatus::failure(IoError::Transient, "flaky");
        return IoStatus::success();
    });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(g_retrySinkTotal, 2); // one report per retry, not per try

    // Permanent failures return without retrying or reporting.
    g_retrySinkTotal = 0;
    const IoStatus p = withRetries(policy, [&]() {
        return IoStatus::failure(IoError::BadChecksum, "permanent");
    });
    EXPECT_EQ(p.error, IoError::BadChecksum);
    EXPECT_EQ(g_retrySinkTotal, 0);
    installIoRetrySink(nullptr);
}

TEST(WithRetries, PolicyBackoffIsDeterministicAndWallClockFree)
{
    // Zero base backoff: the jitter stream is still consulted, but
    // every delay collapses to zero — the run's outcome (attempt
    // count, final status) must be identical on every execution and
    // independent of elapsed wall time.
    RetryPolicy policy;
    policy.attempts = 5;
    policy.backoffMs = 0.0;
    policy.jitter = 1.0;
    policy.seed = 42;
    for (int run = 0; run < 3; ++run) {
        int calls = 0;
        const IoStatus s = withRetries(policy, [&]() {
            ++calls;
            return IoStatus::failure(IoError::Transient, "always");
        });
        EXPECT_EQ(s.error, IoError::Transient);
        EXPECT_EQ(calls, 5);
    }
}

TEST(WithRetries, CheckpointManagerOptionsExposeTheRetryPolicy)
{
    CheckpointManagerOptions opts;
    opts.ioRetries = 7;
    opts.ioBackoffMs = 2.5;
    opts.ioMaxBackoffMs = 40.0;
    opts.ioRetrySeed = 99;
    const RetryPolicy policy = opts.retryPolicy();
    EXPECT_EQ(policy.attempts, 7);
    EXPECT_DOUBLE_EQ(policy.backoffMs, 2.5);
    EXPECT_DOUBLE_EQ(policy.maxBackoffMs, 40.0);
    EXPECT_EQ(policy.seed, 99u);
}

// --------------------------------------------------------------------
// StateWriter / StateReader
// --------------------------------------------------------------------

TEST(State, NamedFieldsRoundTrip)
{
    Tensor t(Shape({2, 3}));
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = 0.5f * static_cast<float>(i) - 1.0f;

    StateWriter w;
    w.i64("alpha", -7);
    w.f32("beta", 2.5f);
    w.f64("gamma", 1e-300);
    w.str("delta", "text");
    w.tensor("epsilon", t);

    StateReader r(w.payload());
    std::int64_t a = 0;
    float b = 0.0f;
    double g = 0.0;
    std::string d;
    Tensor out(Shape({2, 3}));
    EXPECT_TRUE(r.i64("alpha", a));
    EXPECT_TRUE(r.f32("beta", b));
    EXPECT_TRUE(r.f64("gamma", g));
    EXPECT_TRUE(r.str("delta", d));
    EXPECT_TRUE(r.tensor("epsilon", out));
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(a, -7);
    EXPECT_EQ(b, 2.5f);
    EXPECT_EQ(g, 1e-300);
    EXPECT_EQ(d, "text");
    EXPECT_TRUE(bitsEqual(t, out));
}

TEST(State, WrongNameOrTypeIsDiagnosedAndLatched)
{
    StateWriter w;
    w.i64("expected", 1);
    w.i64("later", 2);

    StateReader r(w.payload());
    std::int64_t v = 0;
    EXPECT_FALSE(r.i64("unexpected", v));
    EXPECT_EQ(r.status().error, IoError::BadFormat);
    EXPECT_NE(r.status().message.find("expected field 'unexpected'"),
              std::string::npos)
        << r.status().message;
    // The error latches: even the field that *is* next now fails.
    EXPECT_FALSE(r.i64("later", v));

    StateReader r2(w.payload());
    float f = 0.0f;
    EXPECT_FALSE(r2.f32("expected", f)); // right name, wrong type
    EXPECT_EQ(r2.status().error, IoError::BadFormat);
}

TEST(State, TensorShapeMismatchIsBadFormat)
{
    Tensor t(Shape({4}));
    t.fill(1.0f);
    StateWriter w;
    w.tensor("weights", t);

    StateReader r(w.payload());
    Tensor wrong(Shape({2, 2}));
    EXPECT_FALSE(r.tensor("weights", wrong));
    EXPECT_EQ(r.status().error, IoError::BadFormat);
}

// --------------------------------------------------------------------
// CheckpointManager
// --------------------------------------------------------------------

TEST(Manager, SavesListsAndPrunesToKeepLast)
{
    CheckpointManagerOptions opt;
    opt.dir = freshDir("mgr_prune");
    opt.keepLast = 2;
    CheckpointManager mgr(opt);

    for (std::int64_t step : {5, 10, 15, 20})
        ASSERT_TRUE(mgr.save(step, "payload-" + std::to_string(step)).ok());

    const std::vector<std::int64_t> steps = mgr.listSteps();
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[0], 15);
    EXPECT_EQ(steps[1], 20);
    EXPECT_FALSE(fs::exists(mgr.pathForStep(5)));
    EXPECT_FALSE(fs::exists(mgr.pathForStep(10)));
}

TEST(Manager, LoadLatestReturnsNewest)
{
    CheckpointManagerOptions opt;
    opt.dir = freshDir("mgr_latest");
    CheckpointManager mgr(opt);
    ASSERT_TRUE(mgr.save(3, "three").ok());
    ASSERT_TRUE(mgr.save(7, "seven").ok());

    std::string payload;
    std::int64_t step = 0;
    ASSERT_TRUE(mgr.loadLatest(payload, step).ok());
    EXPECT_EQ(step, 7);
    EXPECT_EQ(payload, "seven");
}

TEST(Manager, FallsBackPastACorruptNewestCheckpoint)
{
    CheckpointManagerOptions opt;
    opt.dir = freshDir("mgr_fallback");
    CheckpointManager mgr(opt);
    ASSERT_TRUE(mgr.save(3, "good-three").ok());
    ASSERT_TRUE(mgr.save(7, "bad-seven").ok());
    const std::string newest = mgr.pathForStep(7);
    corruptByte(newest,
                static_cast<std::int64_t>(fs::file_size(newest)) - 1);

    std::string payload;
    std::int64_t step = 0;
    ASSERT_TRUE(mgr.loadLatest(payload, step).ok());
    EXPECT_EQ(step, 3);
    EXPECT_EQ(payload, "good-three");
}

TEST(Manager, EmptyDirectoryIsNotFound)
{
    CheckpointManagerOptions opt;
    opt.dir = freshDir("mgr_empty");
    CheckpointManager mgr(opt);
    std::string payload;
    std::int64_t step = 0;
    EXPECT_EQ(mgr.loadLatest(payload, step).error, IoError::NotFound);
}

TEST(Manager, IgnoresForeignFilenames)
{
    CheckpointManagerOptions opt;
    opt.dir = freshDir("mgr_foreign");
    CheckpointManager mgr(opt);
    std::ofstream(opt.dir + "/notes.txt") << "not a checkpoint";
    std::ofstream(opt.dir + "/ckpt-abc.bpck") << "bad step";
    ASSERT_TRUE(mgr.save(4, "real").ok());
    const auto steps = mgr.listSteps();
    ASSERT_EQ(steps.size(), 1u);
    EXPECT_EQ(steps[0], 4);
}

// --------------------------------------------------------------------
// Optimizer state round trips (all four optimizers, bitwise)
// --------------------------------------------------------------------

/** Small parameter set with deterministic values and gradients. */
std::vector<Parameter>
makeParams(std::uint64_t seed)
{
    std::vector<Parameter> params;
    params.reserve(3);
    params.emplace_back("w0", Shape({4, 3}));
    params.emplace_back("b0", Shape({3}), /*no_decay=*/true);
    params.emplace_back("w1", Shape({6}));
    Rng rng(seed);
    for (Parameter &p : params) {
        for (std::int64_t i = 0; i < p.value.numel(); ++i)
            p.value.data()[i] =
                static_cast<float>(rng.normal(0.0, 0.1));
    }
    return params;
}

std::vector<Parameter *>
ptrs(std::vector<Parameter> &params)
{
    std::vector<Parameter *> out;
    for (Parameter &p : params)
        out.push_back(&p);
    return out;
}

void
fillGrads(std::vector<Parameter> &params, std::uint64_t seed)
{
    Rng rng(seed);
    for (Parameter &p : params) {
        for (std::int64_t i = 0; i < p.grad.numel(); ++i)
            p.grad.data()[i] =
                static_cast<float>(rng.normal(0.0, 0.01));
    }
}

/**
 * Steps `opt_a` twice, checkpoints it, restores into `opt_b` over a
 * copy of the parameters, then runs three more identical steps on
 * both sides and requires bitwise-equal parameters throughout.
 */
template <typename Opt>
void
roundTripOptimizer(Opt &opt_a, Opt &opt_b)
{
    std::vector<Parameter> params_a = makeParams(11);
    std::vector<Parameter> params_b = makeParams(11);
    auto pa = ptrs(params_a);
    auto pb = ptrs(params_b);

    for (int step = 0; step < 2; ++step) {
        fillGrads(params_a, 100 + static_cast<std::uint64_t>(step));
        opt_a.step(pa);
    }

    StateWriter w;
    opt_a.saveState(pa, w);

    // Bring the b-side parameters to the a-side values (a real resume
    // restores them from the model section of the same payload).
    for (std::size_t i = 0; i < params_a.size(); ++i) {
        std::memcpy(params_b[i].value.data(), params_a[i].value.data(),
                    static_cast<std::size_t>(params_a[i].value.numel()) *
                        sizeof(float));
    }
    StateReader r(w.payload());
    ASSERT_TRUE(opt_b.loadState(pb, r).ok());
    EXPECT_EQ(opt_b.stepCount(), opt_a.stepCount());

    for (int step = 0; step < 3; ++step) {
        fillGrads(params_a, 200 + static_cast<std::uint64_t>(step));
        fillGrads(params_b, 200 + static_cast<std::uint64_t>(step));
        opt_a.step(pa);
        opt_b.step(pb);
        for (std::size_t i = 0; i < params_a.size(); ++i) {
            EXPECT_TRUE(
                bitsEqual(params_a[i].value, params_b[i].value))
                << "param " << params_a[i].name << " diverged at step "
                << step;
        }
    }
}

TEST(OptimizerState, AdamRoundTripsBitwise)
{
    OptimizerConfig cfg;
    Adam a(cfg), b(cfg);
    roundTripOptimizer(a, b);
}

TEST(OptimizerState, UnfusedAdamRoundTripsBitwise)
{
    OptimizerConfig cfg;
    UnfusedAdam a(cfg), b(cfg);
    roundTripOptimizer(a, b);
}

TEST(OptimizerState, LambRoundTripsBitwise)
{
    OptimizerConfig cfg;
    cfg.weightDecay = 0.01f;
    Lamb a(cfg), b(cfg);
    roundTripOptimizer(a, b);
}

TEST(OptimizerState, SgdWithMomentumRoundTripsBitwise)
{
    OptimizerConfig cfg;
    Sgd a(cfg, 0.9f), b(cfg, 0.9f);
    roundTripOptimizer(a, b);
}

TEST(OptimizerState, KindMismatchIsRejected)
{
    std::vector<Parameter> params = makeParams(3);
    auto p = ptrs(params);
    OptimizerConfig cfg;
    Adam adam(cfg);
    StateWriter w;
    adam.saveState(p, w);

    Sgd sgd(cfg, 0.9f);
    StateReader r(w.payload());
    const IoStatus s = sgd.loadState(p, r);
    EXPECT_EQ(s.error, IoError::BadFormat);
    EXPECT_NE(s.message.find("adam"), std::string::npos);
}

TEST(OptimizerState, ParamCountMismatchIsRejected)
{
    std::vector<Parameter> params = makeParams(3);
    auto p = ptrs(params);
    OptimizerConfig cfg;
    Adam adam(cfg);
    fillGrads(params, 1);
    adam.step(p);
    StateWriter w;
    adam.saveState(p, w);

    Adam other(cfg);
    auto fewer = p;
    fewer.pop_back();
    StateReader r(w.payload());
    EXPECT_EQ(other.loadState(fewer, r).error, IoError::BadFormat);
}

// --------------------------------------------------------------------
// GradScaler / Rng / Module state
// --------------------------------------------------------------------

TEST(ScalerState, RoundTripsAndRejectsNonPositiveScale)
{
    GradScaler a(512.0f);
    std::vector<Parameter> params = makeParams(5);
    auto p = ptrs(params);
    // One overflow so the dynamic state is non-trivial.
    params[0].grad.fill(std::numeric_limits<float>::infinity());
    ASSERT_FALSE(a.unscale(p));
    a.update(false);

    StateWriter w;
    a.saveState(w);
    GradScaler b(512.0f);
    StateReader r(w.payload());
    ASSERT_TRUE(b.loadState(r).ok());
    EXPECT_EQ(b.scale(), a.scale());
    EXPECT_EQ(b.skippedSteps(), a.skippedSteps());
    EXPECT_EQ(b.stableSteps(), a.stableSteps());

    StateWriter bad;
    bad.f32("scaler.scale", -1.0f);
    bad.i64("scaler.stable", 0);
    bad.i64("scaler.skipped", 0);
    GradScaler c(512.0f);
    StateReader rb(bad.payload());
    EXPECT_EQ(c.loadState(rb).error, IoError::BadFormat);
}

TEST(RngState, SerializeRestoresTheExactStream)
{
    Rng a(99);
    (void)a.uniform();
    (void)a.normal();
    const std::string state = a.serialize();

    Rng b(1); // different seed; state restore must win
    ASSERT_TRUE(b.deserialize(state));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.engine()(), b.engine()());

    Rng c(1);
    EXPECT_FALSE(c.deserialize("not an mt19937_64 state"));
}

TEST(ModuleState, ParameterTreeRoundTripsBitwise)
{
    BertConfig config;
    config.numLayers = 1;
    config.dModel = 16;
    config.numHeads = 2;
    config.dFf = 32;
    config.vocabSize = 50;
    config.maxPositions = 16;
    config.batch = 2;
    config.seqLen = 8;
    config.maxPredictions = 2;

    NnRuntime rt;
    BertPretrainer model_a(config, &rt);
    BertPretrainer model_b(config, &rt);
    Rng init_a(7), init_b(8);
    model_a.initialize(init_a);
    model_b.initialize(init_b);

    StateWriter w;
    model_a.saveParameters(w);
    StateReader r(w.payload());
    ASSERT_TRUE(model_b.loadParameters(r).ok());

    auto pa = model_a.parameters();
    auto pb = model_b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_TRUE(bitsEqual(pa[i]->value, pb[i]->value))
            << pa[i]->name;
}

TEST(ModuleState, NameMismatchIsRejected)
{
    // Serialize a hand-built record whose second parameter name is
    // wrong; loading into a real model must produce BadFormat.
    BertConfig config;
    config.numLayers = 1;
    config.dModel = 16;
    config.numHeads = 2;
    config.dFf = 32;
    config.vocabSize = 50;
    config.maxPositions = 16;
    config.batch = 2;
    config.seqLen = 8;
    config.maxPredictions = 2;
    NnRuntime rt;
    BertPretrainer model(config, &rt);
    auto params = model.parameters();

    StateWriter w;
    w.i64("model.params", static_cast<std::int64_t>(params.size()));
    w.str("model.name", "someone.else");
    w.tensor("someone.else", params[0]->value);

    StateReader r(w.payload());
    const IoStatus s = model.loadParameters(r);
    EXPECT_EQ(s.error, IoError::BadFormat);
    EXPECT_NE(s.message.find("someone.else"), std::string::npos);
}

} // namespace
} // namespace bertprof
