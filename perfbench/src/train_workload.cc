/**
 * @file
 * The training workload (train-tiny): a closed loop of
 * Trainer::trainStep at a dispatch-bound shape. The traced run replays
 * trainStep through the same public calls in the same order, with
 * spans around each call and the library's Profiler attached, and must
 * end on the bitwise-identical loss.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "optim/lamb.h"
#include "runtime/config.h"
#include "train/trainer.h"

namespace perfbench {

using namespace bertprof;

namespace {

/** The training workload: model shape plus run structure. */
struct TrainShape {
    BertConfig config;
    /** Steps run inside set-up (caches, pool and allocator warm). */
    int warmupSteps = 0;
    /** Set-ups per run; setup_s is the fastest. */
    int setupReps = 0;
    /** Fixed step count of the quality guard (loss window end). */
    int lossStep = 0;
    /** Steps the loss guard averages (ending at lossStep). */
    int lossWindow = 0;
    /** Steps per block in the traced run's interleaving. */
    int blockSteps = 0;
};

TrainShape
tinyShape()
{
    TrainShape s;
    BertConfig &c = s.config;
    c.name = "bert-tiny";
    c.numLayers = 2;
    c.dModel = 64;
    c.numHeads = 4;
    c.dFf = 256;
    c.vocabSize = 256;
    c.maxPositions = 64;
    c.seqLen = 32;
    c.batch = 4;
    c.maxPredictions = 5;
    s.warmupSteps = 10;
    s.setupReps = 9;
    s.lossStep = 200;
    s.lossWindow = 40;
    s.blockSteps = 25;
    return s;
}

constexpr float kPeakLr = 5e-3f;
constexpr std::int64_t kLrWarmup = 10;
constexpr float kDropout = 0.1f;
constexpr float kInitialLossScale = 1024.0f;

/**
 * Everything one training run owns, built from the workload seed.
 * Two stacks built from the same seed are in identical states.
 */
struct Stack {
    Stack(const BertConfig &config, std::uint64_t seed, Profiler *profiler)
        : model(config, &rt), data(config, seed * 2 + 1),
          lamb(optimizerConfig(), profiler), scaler(kInitialLossScale),
          schedule(kPeakLr, kLrWarmup, kLrWarmup, DecayKind::None),
          trainer(model, lamb, scaler, schedule, data, rt),
          params(model.parameters())
    {
        rt.rng = Rng(seed * 2 + 2);
        rt.dropoutP = kDropout;
        rt.profiler = profiler;
        Rng init(seed * 2 + 3);
        model.initialize(init);
    }

    static OptimizerConfig
    optimizerConfig()
    {
        OptimizerConfig c;
        c.weightDecay = 0.01f;
        return c;
    }

    NnRuntime rt;
    BertPretrainer model;
    SyntheticDataset data;
    Lamb lamb;
    GradScaler scaler;
    LrSchedule schedule;
    Trainer trainer;
    std::vector<Parameter *> params;
};

/** What the traced replay of one step measured. */
struct ReplayStep {
    double loss = 0.0;
    bool applied = false;
    double kernelSecondsInFwdBwd = 0.0;
    int fwdBwdSpan = -1;
};

/**
 * Trainer::trainStep through its public calls, in its order, with a
 * span around each call (all keyed by the step index). `step` is the
 * iteration index trainStep would use.
 */
ReplayStep
replayStep(Stack &s, SpanLog &log, std::int64_t step)
{
    ReplayStep r;
    const Profiler &prof = *s.rt.profiler;
    const int root = log.begin("train.step", step);
    int sp = log.begin("optim.set_lr", step, root);
    s.lamb.setLearningRate(s.schedule.at(step));
    log.end(sp);

    sp = log.begin("data.next_batch", step, root);
    const PretrainBatch batch = s.data.nextBatch();
    log.end(sp);

    sp = log.begin("nn.zero_grad", step, root);
    s.model.zeroGrad();
    log.end(sp);

    const std::size_t first_kernel = prof.records().size();
    r.fwdBwdSpan = log.begin("nn.fwd_bwd", step, root);
    const PretrainStepResult m =
        s.model.forwardBackward(batch, s.scaler.scale());
    log.end(r.fwdBwdSpan);
    for (std::size_t i = first_kernel; i < prof.records().size(); ++i)
        r.kernelSecondsInFwdBwd += prof.records()[i].seconds;
    r.loss = m.totalLoss();

    if (m.lossFinite()) {
        sp = log.begin("optim.unscale", step, root);
        const bool finite = s.scaler.unscale(s.params);
        s.scaler.update(finite);
        log.end(sp);
        if (finite) {
            sp = log.begin("optim.step", step, root);
            s.lamb.step(s.params);
            log.end(sp);
            r.applied = true;
        }
    }
    log.end(root);
    return r;
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Runs one untraced trainStep, checking it; returns its seconds. */
double
timedStep(Stack &s, Report &report, std::vector<double> &losses)
{
    const std::int64_t t0 = nowNs();
    const TrainStepResult step = s.trainer.trainStep();
    const double dt = secondsSince(t0);
    losses.push_back(step.metrics.totalLoss());
    if (step.status != StepStatus::Applied ||
        !std::isfinite(step.metrics.totalLoss())) {
        ++report.failed;
        report.fail("step " + std::to_string(s.trainer.iteration() - 1) +
                    " not applied: " + stepStatusName(step.status));
    }
    return dt;
}

double
mean(const std::vector<double> &v, std::size_t from, std::size_t to)
{
    double sum = 0.0;
    for (std::size_t i = from; i < to; ++i)
        sum += v[i];
    return sum / static_cast<double>(to - from);
}

/** Sums of the ten equal consecutive parts of `v` (the rest dropped). */
std::vector<double>
tenthSums(const std::vector<double> &v)
{
    const std::size_t seg = v.size() / 10;
    std::vector<double> out;
    for (std::size_t i = 0; seg > 0 && i + seg <= v.size(); i += seg)
        out.push_back(mean(v, i, i + seg) * static_cast<double>(seg));
    return out;
}

bool
bitwiseEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Build the stack `reps` times (keeping the last) and run the warm-up
 * steps on each; setup_s is the CPU time of the fastest set-up, which
 * host noise can only lengthen.
 */
std::unique_ptr<Stack>
setUp(const TrainShape &shape, std::uint64_t seed, Report &report,
      std::vector<double> &losses)
{
    std::vector<double> times, cpu;
    std::unique_ptr<Stack> stack;
    for (int rep = 0; rep < shape.setupReps; ++rep) {
        stack.reset();
        losses.clear();
        const double c0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        stack = std::make_unique<Stack>(shape.config, seed, nullptr);
        for (int i = 0; i < shape.warmupSteps; ++i)
            timedStep(*stack, report, losses);
        times.push_back(secondsSince(t0));
        cpu.push_back(processCpuSeconds() - c0);
    }
    const auto reps = static_cast<std::int64_t>(times.size());
    report.add("setup_s", *std::min_element(cpu.begin(), cpu.end()), "s",
               reps,
               "process CPU time of build + init + " +
                   std::to_string(shape.warmupSteps) +
                   " warm-up steps, fastest of set-ups");
    report.add("setup_wall_s", *std::min_element(times.begin(), times.end()),
               "s", reps, "wall time, fastest of set-ups");
    return stack;
}

/** The loss at the fixed step count, averaged over a window. */
void
addLoss(const TrainShape &shape, const std::vector<double> &losses,
        Report &report)
{
    const auto end = static_cast<std::size_t>(shape.lossStep);
    const auto window = static_cast<std::size_t>(shape.lossWindow);
    const double last = mean(losses, end - window, end);
    report.add("train_loss_final", last, "loss", shape.lossWindow,
               "mean loss of steps " + std::to_string(end - window) + ".." +
                   std::to_string(end - 1));
    if (!std::isfinite(last))
        report.fail("non-finite loss at the fixed step count");
}

/** Replay steps [0, upto) on a fresh stack; returns the last loss. */
double
replayPrefix(const TrainShape &shape, std::uint64_t seed, std::int64_t upto,
             Report &report)
{
    Profiler profiler;
    SpanLog log;
    Stack s(shape.config, seed, &profiler);
    double loss = 0.0;
    for (std::int64_t step = 0; step < upto; ++step) {
        const ReplayStep r = replayStep(s, log, step);
        if (!r.applied)
            report.fail("replayed step " + std::to_string(step) +
                        " not applied");
        loss = r.loss;
    }
    return loss;
}

void
measured(const RunArgs &args, const TrainShape &shape, Report &report)
{
    std::vector<double> losses;
    std::unique_ptr<Stack> s = setUp(shape, args.seed, report, losses);

    std::vector<double> step_s, step_cpu;
    const std::int64_t t0 = nowNs();
    double cpu = processCpuSeconds();
    while (secondsSince(t0) < args.seconds ||
           static_cast<int>(losses.size()) < shape.lossStep) {
        step_s.push_back(timedStep(*s, report, losses));
        const double now = processCpuSeconds();
        step_cpu.push_back(now - cpu);
        cpu = now;
    }
    report.attempted = static_cast<std::int64_t>(step_s.size());

    const auto n = static_cast<std::int64_t>(step_s.size());
    const double applied = static_cast<double>(n - report.failed);
    // Per tenth of the run; the median over tenths keeps a burst of
    // host noise in one part of the run from moving the result.
    const double per_tenth =
        static_cast<double>(step_s.size() / 10) * shape.config.batch;
    std::vector<double> rates, cpu_ms;
    for (const double t : tenthSums(step_s))
        rates.push_back(per_tenth / t);
    for (const double c : tenthSums(step_cpu))
        cpu_ms.push_back(c / per_tenth * 1e3);
    report.add("cpu_ms_per_item", median(cpu_ms), "ms", n,
               "process CPU time per training sample, median of the run's "
               "tenths");
    report.add("train_samples_per_s", median(rates), "1/s", n,
               "median of the run's tenths");
    report.add("train_step_ms_p50", median(step_s) * 1e3, "ms", n);
    const Tail t = tail(step_s);
    char note[32];
    std::snprintf(note, sizeof(note), "p%.1f", t.percentile);
    report.add("train_step_ms_tail", t.value * 1e3, "ms", n, note);
    report.add("fail_share", 1.0 - applied / static_cast<double>(n), "share",
               n, "steps not applied / steps");
    addLoss(shape, losses, report);

    // Faithful-replay check on a short prefix: the traced replay of
    // trainStep must reproduce the untraced loss bit for bit.
    const std::int64_t upto = shape.warmupSteps + 2;
    const double replayed = replayPrefix(shape, args.seed, upto, report);
    if (!bitwiseEqual(replayed, losses[static_cast<std::size_t>(upto - 1)]))
        report.fail("traced replay loss differs from trainStep at step " +
                    std::to_string(upto - 1));
    report.add("peak_rss_mb", peakRssMb(), "MB", 1);
}

void
traced(const RunArgs &args, const TrainShape &shape, Report &report)
{
    std::vector<double> losses;
    std::unique_ptr<Stack> a = setUp(shape, args.seed, report, losses);

    Profiler profiler;
    SpanLog log;
    Stack b(shape.config, args.seed, &profiler);
    std::int64_t b_step = 0;
    for (; b_step < shape.warmupSteps; ++b_step)
        replayStep(b, log, b_step);
    profiler.clear();
    const std::size_t first_span = log.spans().size();

    // Untraced and traced blocks alternate, so drift hits both alike.
    std::vector<double> a_all, overhead_pct, self_s;
    double last_b_loss = 0.0;
    const std::int64_t t0 = nowNs();
    int reps = 0;
    while (reps < 4 || secondsSince(t0) < 0.75 * args.seconds) {
        std::vector<double> a_block, b_block;
        for (int i = 0; i < shape.blockSteps; ++i)
            a_block.push_back(timedStep(*a, report, losses));
        for (int i = 0; i < shape.blockSteps; ++i, ++b_step) {
            const std::int64_t s0 = nowNs();
            const ReplayStep r = replayStep(b, log, b_step);
            b_block.push_back(secondsSince(s0));
            self_s.push_back(log.seconds(r.fwdBwdSpan) -
                             r.kernelSecondsInFwdBwd);
            if (!r.applied)
                report.fail("traced step " + std::to_string(b_step) +
                            " not applied");
            last_b_loss = r.loss;
        }
        a_all.insert(a_all.end(), a_block.begin(), a_block.end());
        overhead_pct.push_back(
            (median(b_block) / median(a_block) - 1.0) * 100.0);
        ++reps;
    }
    report.attempted = static_cast<std::int64_t>(a_all.size() + self_s.size());
    if (!bitwiseEqual(last_b_loss, losses.back()))
        report.fail("traced final loss differs from the untraced run's");

    // The same steady phase, serial.
    std::vector<double> one_thread;
    setNumThreads(1);
    const std::int64_t t1 = nowNs();
    while (one_thread.size() < 3 || secondsSince(t1) < 0.25 * args.seconds)
        one_thread.push_back(timedStep(*a, report, losses));
    setNumThreads(0);

    const auto n_b = static_cast<std::int64_t>(self_s.size());
    report.add("runtime.speedup_vs_1t", median(one_thread) / median(a_all),
               "x", static_cast<std::int64_t>(one_thread.size()),
               "1-thread step p50 / default-thread step p50");
    report.addKernels(profiler, static_cast<double>(n_b), "step");

    // Per-call spans of the measured traced steps.
    std::map<std::string, std::vector<double>> by_name;
    for (std::size_t i = first_span; i < log.spans().size(); ++i)
        by_name[log.spans()[i].name].push_back(
            log.seconds(static_cast<int>(i)));
    auto p50ms = [&](const char *name) { return median(by_name[name]) * 1e3; };
    report.add("nn.fwd_bwd_ms", p50ms("nn.fwd_bwd"), "ms", n_b);
    report.add("nn.self_ms", median(self_s) * 1e3, "ms", n_b,
               "fwd_bwd span minus kernel time inside it");
    report.add("optim.unscale_ms", p50ms("optim.unscale"), "ms", n_b);
    report.add("optim.step_ms", p50ms("optim.step"), "ms", n_b);
    const auto groups = profiler.bySubLayer();
    const auto lamb1 = groups.find("LAMB stage 1");
    report.add("optim.lamb_stage1_ms",
               lamb1 == groups.end()
                   ? 0.0
                   : lamb1->second.seconds * 1e3 / static_cast<double>(n_b),
               "ms", n_b);
    report.add("data.batch_ms", p50ms("data.next_batch"), "ms", n_b);
    report.add("trace.overhead_pct", median(overhead_pct), "%", reps,
               "traced step p50 vs untraced, per interleaved block");
    report.add("trace.overhead_iqr_pct", iqr(overhead_pct), "%", reps);

    if (!args.traceOut.empty() && !log.write(args.traceOut))
        report.fail("cannot write spans to " + args.traceOut);
    report.add("peak_rss_mb", peakRssMb(), "MB", 1);
}

} // namespace

void
runTraining(const RunArgs &args, Report &report)
{
    const TrainShape shape = tinyShape();
    std::printf("model %s: %d layers, d_model %lld, heads %d, d_ff %lld, "
                "vocab %lld, seq %lld, batch %lld, dropout %.2f, LAMB, "
                "GradScaler(%.0f)\n",
                shape.config.name.c_str(), shape.config.numLayers,
                static_cast<long long>(shape.config.dModel),
                shape.config.numHeads,
                static_cast<long long>(shape.config.dFf),
                static_cast<long long>(shape.config.vocabSize),
                static_cast<long long>(shape.config.seqLen),
                static_cast<long long>(shape.config.batch), kDropout,
                kInitialLossScale);
    if (args.trace)
        traced(args, shape, report);
    else
        measured(args, shape, report);
}

} // namespace perfbench
