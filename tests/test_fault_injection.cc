/**
 * @file
 * Fault injector tests: spec parsing, deterministic occurrence
 * counting, and each fault class end-to-end through the I/O layer —
 * torn writes leave the last-good file intact, transient errors
 * exercise the bounded retry-with-backoff path, NaN/Inf contamination
 * triggers the training loop's skip-step handling, and kill specs
 * terminate the process with code 137 (covered by the EXPECT_EXIT
 * death test in test_resume.cc and scripts/check_resume.sh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/bertprof.h"

namespace bertprof {
namespace {

namespace fs = std::filesystem;

/** RAII: disarm the process-wide injector on scope exit. */
struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::instance().reset(); }
};

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "bp_fault_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Tiny training setup shared by the contamination tests. */
struct TinyRun {
    BertConfig config;
    NnRuntime rt;
    BertPretrainer model;
    SyntheticDataset dataset;
    Lamb lamb;
    GradScaler scaler;
    LrSchedule schedule;
    Trainer trainer;

    explicit TinyRun(TrainerOptions options = {})
        : config(tinyConfig()), rt(), model(config, &rt),
          dataset(config, 77), lamb(OptimizerConfig{}),
          scaler(1024.0f),
          schedule(1e-3f, 2, 100, DecayKind::Linear),
          trainer(model, lamb, scaler, schedule, dataset, rt, options)
    {
        Rng init(1234);
        model.initialize(init);
    }

    static BertConfig
    tinyConfig()
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
};

// --------------------------------------------------------------------
// Spec parsing
// --------------------------------------------------------------------

TEST(FaultSpecParse, AcceptsTheFullGrammar)
{
    bool ok = false;
    FaultSpec s = FaultInjector::parseClause("torn@io.write:3", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::TornWrite);
    EXPECT_EQ(s.site, "io.write");
    EXPECT_EQ(s.first, 3);
    EXPECT_EQ(s.count, 1);

    s = FaultInjector::parseClause("ioerr@io.read:2+4", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::IoError);
    EXPECT_EQ(s.first, 2);
    EXPECT_EQ(s.count, 4);

    s = FaultInjector::parseClause(" kill@optim.step:10 ", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::Kill);

    s = FaultInjector::parseClause("nan@nn.activations:1", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::NaN);

    s = FaultInjector::parseClause("inf@train.grad:1", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::Inf);

    s = FaultInjector::parseClause("reject@serve.submit:1+5", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::Reject);
    EXPECT_EQ(s.first, 1);
    EXPECT_EQ(s.count, 5);

    // Parameterless slow keeps the default stall.
    s = FaultInjector::parseClause("slow@serve.compute:2", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::Slow);
    EXPECT_EQ(s.slowUs, 1000);

    s = FaultInjector::parseClause("slow=2500@serve.batch:1+3", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(s.kind, FaultKind::Slow);
    EXPECT_EQ(s.slowUs, 2500);
}

TEST(FaultSpecParse, SlowParameterValidation)
{
    bool ok = true;
    for (const char *bad : {"slow=@site:1", "slow=0@site:1",
                            "slow=abc@site:1", "torn=5@site:1"}) {
        (void)FaultInjector::parseClause(bad, &ok);
        EXPECT_FALSE(ok) << "accepted malformed clause: " << bad;
    }
}

TEST(FaultInjection, SlowReportsStallThroughCheck)
{
    InjectorGuard guard;
    FaultInjector &fi = FaultInjector::instance();
    fi.configure("slow=750@test.slow:1+2");
    std::int64_t us = 0;
    EXPECT_EQ(faultAt("test.slow", &us), FaultKind::Slow);
    EXPECT_EQ(us, 750);
    us = 0;
    EXPECT_EQ(faultAt("test.slow", &us), FaultKind::Slow);
    EXPECT_EQ(us, 750);
    EXPECT_EQ(faultAt("test.slow", &us), FaultKind::None);
}

TEST(FaultSpecParse, RejectsMalformedClauses)
{
    bool ok = true;
    for (const char *bad :
         {"torn", "torn@", "torn@site", "torn@site:", "torn@site:0",
          "torn@site:-1", "torn@site:1+0", "bogus@site:1",
          "torn@site:abc", "@site:1"}) {
        (void)FaultInjector::parseClause(bad, &ok);
        EXPECT_FALSE(ok) << "accepted malformed clause: " << bad;
    }
}

// --------------------------------------------------------------------
// Occurrence counting
// --------------------------------------------------------------------

TEST(FaultInjection, FiresAtExactlyTheConfiguredOccurrences)
{
    InjectorGuard guard;
    FaultInjector &fi = FaultInjector::instance();
    fi.configure("nan@test.site:3+2");

    EXPECT_EQ(faultAt("test.site"), FaultKind::None); // 1
    EXPECT_EQ(faultAt("test.site"), FaultKind::None); // 2
    EXPECT_EQ(faultAt("test.site"), FaultKind::NaN);  // 3
    EXPECT_EQ(faultAt("test.site"), FaultKind::NaN);  // 4
    EXPECT_EQ(faultAt("test.site"), FaultKind::None); // 5
    EXPECT_EQ(fi.hits("test.site"), 5);
    EXPECT_EQ(fi.injectedCount(), 2);
    // An unrelated site never fires.
    EXPECT_EQ(faultAt("other.site"), FaultKind::None);
}

TEST(FaultInjection, SitesCountIndependentlyAndResetRearms)
{
    InjectorGuard guard;
    FaultInjector &fi = FaultInjector::instance();
    fi.configure("inf@site.a:1;nan@site.b:2");

    EXPECT_EQ(faultAt("site.a"), FaultKind::Inf);
    EXPECT_EQ(faultAt("site.b"), FaultKind::None);
    EXPECT_EQ(faultAt("site.b"), FaultKind::NaN);

    fi.configure("inf@site.a:1"); // reconfigure resets counters
    EXPECT_EQ(faultAt("site.a"), FaultKind::Inf);

    fi.reset();
    EXPECT_FALSE(fi.enabled());
    EXPECT_EQ(faultAt("site.a"), FaultKind::None);
}

TEST(FaultInjection, DisabledInjectorIsInvisible)
{
    InjectorGuard guard;
    FaultInjector::instance().reset();
    EXPECT_FALSE(FaultInjector::instance().enabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(faultAt("any.site"), FaultKind::None);
}

// --------------------------------------------------------------------
// I/O faults through the real write/read paths
// --------------------------------------------------------------------

TEST(IoFaults, TornWriteLeavesTheOldFileIntact)
{
    InjectorGuard guard;
    const std::string dir = freshDir("torn");
    const std::string path = dir + "/file.bpck";
    ASSERT_TRUE(writeFileAtomic(path, "committed").ok());

    FaultInjector::instance().configure("torn@io.write:1");
    const IoStatus s = writeFileAtomic(path, "torn-away");
    EXPECT_EQ(s.error, IoError::WriteFailed);

    // The committed file still validates and holds the old payload.
    std::string got;
    ASSERT_TRUE(readFileValidated(path, got).ok());
    EXPECT_EQ(got, "committed");
}

TEST(IoFaults, TornCommitNeverExposesAPartialFile)
{
    InjectorGuard guard;
    const std::string dir = freshDir("torn_commit");
    const std::string path = dir + "/file.bpck";
    ASSERT_TRUE(writeFileAtomic(path, "committed").ok());

    FaultInjector::instance().configure("torn@io.commit:1");
    EXPECT_EQ(writeFileAtomic(path, "lost").error, IoError::WriteFailed);

    std::string got;
    ASSERT_TRUE(readFileValidated(path, got).ok());
    EXPECT_EQ(got, "committed");
}

TEST(IoFaults, TransientWriteErrorsAreRetriedToSuccess)
{
    InjectorGuard guard;
    const std::string dir = freshDir("retry_write");
    const std::string path = dir + "/file.bpck";

    // Two transient failures, then clean: a 3-attempt budget wins.
    FaultInjector::instance().configure("ioerr@io.write:1+2");
    RetryPolicy policy;
    policy.attempts = 3;
    policy.backoffMs = 0.01;
    const IoStatus s = withRetries(policy, [&]() {
        return writeFileAtomic(path, "eventually");
    });
    EXPECT_TRUE(s.ok()) << s.toString();
    std::string got;
    ASSERT_TRUE(readFileValidated(path, got).ok());
    EXPECT_EQ(got, "eventually");
}

TEST(IoFaults, TransientReadErrorsExhaustTheBudget)
{
    InjectorGuard guard;
    const std::string dir = freshDir("retry_read");
    const std::string path = dir + "/file.bpck";
    ASSERT_TRUE(writeFileAtomic(path, "payload").ok());

    FaultInjector::instance().configure("ioerr@io.read:1+10");
    RetryPolicy policy;
    policy.attempts = 3;
    policy.backoffMs = 0.01;
    std::string got;
    const IoStatus s = withRetries(policy, [&]() {
        return readFileValidated(path, got);
    });
    EXPECT_EQ(s.error, IoError::Transient);
    EXPECT_EQ(FaultInjector::instance().hits("io.read"), 3);
}

TEST(IoFaults, ManagerSurvivesATornSaveAndKeepsTheLastGood)
{
    InjectorGuard guard;
    CheckpointManagerOptions opt;
    opt.dir = freshDir("mgr_torn");
    opt.ioRetries = 2;
    opt.ioBackoffMs = 0.01;
    CheckpointManager mgr(opt);
    ASSERT_TRUE(mgr.save(5, "step-five").ok());

    // Torn writes are permanent (not retried): the save fails but the
    // store still serves step 5.
    FaultInjector::instance().configure("torn@io.write:1");
    EXPECT_FALSE(mgr.save(10, "step-ten").ok());

    std::string payload;
    std::int64_t step = 0;
    ASSERT_TRUE(mgr.loadLatest(payload, step).ok());
    EXPECT_EQ(step, 5);
    EXPECT_EQ(payload, "step-five");
}

// --------------------------------------------------------------------
// Numeric contamination through the training loop
// --------------------------------------------------------------------

TEST(NumericFaults, NanActivationsSkipTheStepAndRecover)
{
    InjectorGuard guard;
    TinyRun run;
    const float scale_before = run.scaler.scale();

    FaultInjector::instance().configure("nan@nn.activations:2");
    TrainStepResult r1 = run.trainer.trainStep();
    EXPECT_EQ(r1.status, StepStatus::Applied);

    TrainStepResult r2 = run.trainer.trainStep();
    EXPECT_EQ(r2.status, StepStatus::SkippedNonFiniteLoss);
    EXPECT_FALSE(r2.metrics.lossFinite());
    EXPECT_LT(run.scaler.scale(), scale_before); // backed off
    EXPECT_EQ(run.scaler.skippedSteps(), 1);

    // The contamination must not persist: the next step is clean.
    TrainStepResult r3 = run.trainer.trainStep();
    EXPECT_EQ(r3.status, StepStatus::Applied);
    EXPECT_TRUE(r3.metrics.lossFinite());
    EXPECT_EQ(run.trainer.iteration(), 3);
}

TEST(NumericFaults, InfActivationsAreCaughtBeforeTheOptimizerStep)
{
    InjectorGuard guard;
    TinyRun run;
    const std::int64_t optim_steps_before = run.lamb.stepCount();

    // Unlike NaN, an Inf activation can still yield a *finite* loss
    // (softmax saturates to probability 1), so the loss check alone
    // may not fire — but the backward pass turns it into non-finite
    // gradients, and the unscale check catches those. Either skip
    // path is acceptable; what matters is that the optimizer never
    // consumes the contamination.
    FaultInjector::instance().configure("inf@nn.activations:1");
    TrainStepResult r = run.trainer.trainStep();
    EXPECT_NE(r.status, StepStatus::Applied);
    EXPECT_EQ(run.lamb.stepCount(), optim_steps_before);
    EXPECT_EQ(run.trainer.iteration(), 1); // skipped steps still count

    // The next step is clean again.
    TrainStepResult r2 = run.trainer.trainStep();
    EXPECT_EQ(r2.status, StepStatus::Applied);
}

TEST(NumericFaults, GradientContaminationHitsTheScalerSkipPath)
{
    InjectorGuard guard;
    TinyRun run;
    const float scale_before = run.scaler.scale();
    const std::int64_t optim_steps_before = run.lamb.stepCount();

    FaultInjector::instance().configure("nan@train.grad:1;inf@train.grad:2");
    TrainStepResult r1 = run.trainer.trainStep();
    EXPECT_EQ(r1.status, StepStatus::SkippedNonFiniteGrad);
    EXPECT_TRUE(r1.metrics.lossFinite()); // loss was fine; grads were not

    TrainStepResult r2 = run.trainer.trainStep();
    EXPECT_EQ(r2.status, StepStatus::SkippedNonFiniteGrad);

    EXPECT_EQ(run.lamb.stepCount(), optim_steps_before); // no updates
    EXPECT_EQ(run.scaler.skippedSteps(), 2);
    EXPECT_LT(run.scaler.scale(), scale_before);

    // Gradients were zeroed by the skip path, and training proceeds.
    TrainStepResult r3 = run.trainer.trainStep();
    EXPECT_EQ(r3.status, StepStatus::Applied);
    EXPECT_EQ(run.lamb.stepCount(), optim_steps_before + 1);
}

TEST(NumericFaults, SkippedStepsNeverCorruptParameters)
{
    InjectorGuard guard;
    // The invariant: a skipped step leaves every parameter exactly
    // as it was before the contaminated batch.
    TinyRun run;
    run.trainer.trainStep();
    auto params = run.model.parameters();
    std::vector<std::vector<float>> before;
    for (Parameter *p : params) {
        before.emplace_back(p->value.data(),
                            p->value.data() + p->value.numel());
    }

    FaultInjector::instance().configure("nan@train.grad:1");
    TrainStepResult r = run.trainer.trainStep();
    ASSERT_EQ(r.status, StepStatus::SkippedNonFiniteGrad);
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_EQ(std::memcmp(before[i].data(), params[i]->value.data(),
                              before[i].size() * sizeof(float)),
                  0)
            << "parameter " << params[i]->name
            << " changed during a skipped step";
    }
}

} // namespace
} // namespace bertprof
