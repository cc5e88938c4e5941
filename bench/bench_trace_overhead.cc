/**
 * @file
 * Recording-overhead bench for the telemetry subsystem: the same
 * training-step and forward-only eval loops with trace recording off
 * and on, interleaved rep by rep on the bench harness. The recorder
 * starts and stops in the untimed `enter`, so a rep times the loop
 * only. The overhead is the per-rep on/off time ratio; it is reported
 * only when its whole interquartile range lies above zero, and as
 * unresolved otherwise (never as a negative percentage). Also
 * reports what the last recorded rep produced (events, chunks,
 * on-disk bytes, compression ratio) by re-opening the container it
 * wrote, so this binary doubles as the record -> replay smoke for
 * scripts/run_all.sh.
 *
 * Usage: bench_trace_overhead [--quick] [--json <path>]
 *                             [--record <path>]
 *   --quick shrinks step counts and reps for CI smoke runs.
 *   --record sets the container path (default
 *     bench_trace_overhead.bptr in the working directory; the file is
 *     left on disk for bptrace).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "harness.h"
#include "serve/traffic.h"
#include "telemetry/trace_reader.h"

using namespace bertprof;

namespace {

/**
 * Kernel sizes matter here: recording cost is per event, so the
 * overhead ratio depends on how much work each kernel does. A
 * nano-sized config would measure the recorder against ~2us kernels
 * no real run produces; this config keeps kernels in the
 * tens-to-hundreds of microseconds, the small end of the paper's
 * range, making the reported percentage an upper bound.
 */
BertConfig
benchConfig(bool quick)
{
    BertConfig config;
    config.name = "bert-trace-bench";
    config.numLayers = 2;
    config.dModel = quick ? 64 : 128;
    config.numHeads = 4;
    config.dFf = 4 * config.dModel;
    config.vocabSize = 512;
    config.maxPositions = 64;
    config.typeVocab = 2;
    config.batch = 2;
    config.seqLen = quick ? 32 : 64;
    config.maxPredictions = 8;
    config.numClasses = 2;
    return config;
}

/**
 * Per-rep recording overhead in percent, from the paired on/off
 * times of each round. The median counts as resolved only when the
 * whole interquartile range lies above zero; otherwise the value is
 * NaN (written null, printed "unresolved") and the quartiles show
 * the spread that swamped it.
 */
bench::Metric
overheadMetric(const std::string &name, const bench::Stats &off,
               const bench::Stats &on)
{
    const bench::Stats ratio = bench::pairedRatio(on, off);
    bench::Metric m{name, (ratio.median - 1.0) * 100.0, "%", ratio.n,
                    (ratio.q1 - 1.0) * 100.0, (ratio.q3 - 1.0) * 100.0};
    if (!(m.q1 > 0.0))
        m.value = NAN;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(argc, argv, {}, {"--record"});
    const bool quick = args.quick;
    const std::string trace_path =
        args.has("--record") ? args.extra.at("--record")
                             : "bench_trace_overhead.bptr";

    const BertConfig config = benchConfig(quick);
    const int train_steps = quick ? 3 : 10;
    const int eval_batches = quick ? 10 : 60;
    const int reps = quick ? 3 : 15;

    // Training loop state, built once; every rep runs more steps.
    NnRuntime train_rt;
    BertPretrainer pretrainer(config, &train_rt);
    Rng init(20260808);
    pretrainer.initialize(init);
    SyntheticDataset dataset(config, 77);
    Lamb optimizer{OptimizerConfig{}};
    GradScaler scaler(1024.0f);
    LrSchedule schedule(1e-3f, 4, 400, DecayKind::Polynomial, 1.0);
    Trainer trainer(pretrainer, optimizer, scaler, schedule, dataset,
                    train_rt);
    const auto train_loop = [&] {
        for (int i = 0; i < train_steps; ++i)
            (void)trainer.trainStep();
    };

    // Forward-only eval on one fixed request.
    NnRuntime eval_rt;
    BertClassifier classifier(config, &eval_rt);
    Rng eval_init(20260808);
    classifier.initialize(eval_init);
    classifier.setTraining(false);
    Rng body(42);
    const InferRequest probe =
        syntheticRequest(body, 0, config.seqLen, config.vocabSize);
    const auto eval_loop = [&] {
        for (int i = 0; i < eval_batches; ++i)
            (void)classifier.forwardLogitsEval(
                probe.tokenIds, probe.segmentIds, 1, config.seqLen, {});
    };

    // Recorder off: no sink, no profiler — ScopedKernel is a no-op.
    // Recorder on: a fresh container session per rep. A start or
    // stop failure is latched and fails the run after the sweep.
    TraceRecorder &recorder = TraceRecorder::instance();
    RecorderOptions options;
    options.path = trace_path;
    IoStatus failure = IoStatus::success();
    const auto latch = [&](IoStatus status) {
        if (!status.ok() && failure.ok())
            failure = status;
    };
    const auto off = [&] { latch(recorder.stop()); };
    const auto on = [&] { latch(recorder.start(options)); };
    // One sweep per loop, so each rep runs right after a rep of the
    // same loop and neither side inherits the other loop's caches.
    // Train last, so the container left on disk holds training steps
    // as well as kernels.
    const std::vector<bench::Stats> eval_t =
        bench::runRoundRobin({{off, eval_loop}, {on, eval_loop}}, reps);
    const std::vector<bench::Stats> train_t =
        bench::runRoundRobin({{off, train_loop}, {on, train_loop}}, reps);
    const std::int64_t events = recorder.eventsRecorded();
    const std::int64_t dropped = recorder.eventsDropped();
    latch(recorder.stop());
    if (!failure.ok()) {
        std::fprintf(stderr, "recording failed: %s\n",
                     failure.toString().c_str());
        return 1;
    }

    // Re-open what the last rep wrote: the record -> replay smoke.
    TraceReader reader;
    const IoStatus opened = reader.open(trace_path);
    if (!opened.ok()) {
        std::fprintf(stderr, "recorded container unreadable: %s\n",
                     opened.toString().c_str());
        return 1;
    }
    std::int64_t raw_bytes = 0;
    for (std::size_t c = 0; c < reader.chunkCount(); ++c)
        raw_bytes += static_cast<std::int64_t>(reader.chunk(c).rawSize);

    bench::Report report("bench_trace_overhead", args);
    report.config("train_steps", train_steps);
    report.config("eval_batches", eval_batches);
    report.config("reps", reps);
    report.config("d_model", static_cast<double>(config.dModel));
    report.config("seq", static_cast<double>(config.seqLen));
    report.rate("eval.off_batches_per_s", "1/s", eval_batches, eval_t[0]);
    report.rate("eval.on_batches_per_s", "1/s", eval_batches, eval_t[1]);
    report.add(overheadMetric("eval.overhead_pct", eval_t[0], eval_t[1]));
    report.rate("train.off_steps_per_s", "1/s", train_steps, train_t[0]);
    report.rate("train.on_steps_per_s", "1/s", train_steps, train_t[1]);
    report.add(
        overheadMetric("train.overhead_pct", train_t[0], train_t[1]));
    // What the last recorder-on rep (train_steps steps) wrote.
    report.value("trace.events", static_cast<double>(events), "count");
    report.value("trace.events_dropped", static_cast<double>(dropped),
                 "count");
    report.value("trace.chunks", static_cast<double>(reader.chunkCount()),
                 "count");
    report.value("trace.file_bytes", static_cast<double>(reader.fileSize()),
                 "bytes");
    report.value("trace.compression_ratio",
                 reader.fileSize() > 0
                     ? static_cast<double>(raw_bytes) /
                           static_cast<double>(reader.fileSize())
                     : 0.0,
                 "x");
    const int status = report.emit();
    std::printf("trace tail %s\n", reader.truncatedTail() ? "TORN" : "clean");
    return status;
}
