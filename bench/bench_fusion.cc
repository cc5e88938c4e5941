/**
 * @file
 * Measured fused-vs-unfused encoder-layer performance on the CPU
 * substrate: eval forward, training forward+backward and closed-loop
 * serving throughput. Alongside each measured ratio the Fig. 12-style
 * analytical prediction is reported: the kernel-count and memory-
 * traffic ratios from the same runs' KernelStats (traffic ratio is
 * the roofline memory-bound speedup upper bound; GEMM-heavy spans are
 * compute-bound, so the measured ratio sits below it). Fused and
 * unfused reps run round-robin on the bench harness, so host drift
 * lands on both paths alike; speedups are per-rep ratios.
 *
 * Usage: bench_fusion [--quick] [--json <path>]
 */

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "harness.h"
#include "nn/encoder_layer.h"
#include "runtime/config.h"
#include "serve/server.h"
#include "serve/traffic.h"

using namespace bertprof;

namespace {

struct Measurement {
    std::int64_t kernels = 0;
    double bytes = 0.0;
};

/** Kernel count and KernelStats traffic from one profiled call. */
template <typename Fn>
Measurement
profileOnce(Profiler &prof, Fn &&fn)
{
    fn(); // warm caches and the thread pool
    prof.clear();
    fn(); // profiled rep
    Measurement m;
    m.kernels = static_cast<std::int64_t>(prof.records().size());
    for (const auto &rec : prof.records())
        m.bytes += static_cast<double>(rec.stats.bytesTotal());
    return m;
}

/** Submit `count` mixed-length requests to `server` and wait for
 * every reply (closed loop: all in flight at once). */
void
serveBurst(InferenceServer &server, std::int64_t vocab, int count)
{
    Rng body(99);
    std::vector<std::future<InferReply>> futures;
    for (int id = 0; id < count; ++id)
        futures.push_back(server.submit(syntheticRequest(
            body, static_cast<std::uint64_t>(id), 16 + (id % 5) * 24,
            vocab)));
    for (auto &f : futures)
        f.wait();
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(argc, argv);
    const bool quick = args.quick;

    const std::int64_t d_model = quick ? 128 : 256;
    const int heads = quick ? 4 : 8;
    const std::int64_t d_ff = 4 * d_model;
    const std::int64_t batch = quick ? 2 : 2;
    const std::int64_t seq = quick ? 64 : 256;
    const int reps = quick ? 5 : 30;

    Profiler prof;
    NnRuntime rt;
    rt.profiler = &prof;
    EncoderLayer layer("enc", d_model, heads, d_ff, &rt);
    Rng init(20260808);
    layer.initialize(init);

    Rng data(1);
    Tensor x(Shape({batch * seq, d_model}));
    x.fillNormal(data);
    Tensor mask(Shape({seq, seq}));

    auto eval_forward = [&]() { (void)layer.forward(x, mask, batch, seq); };

    // -- Eval forward: unfused / fused --
    layer.setTraining(false);
    auto enter_unfused = [&]() { setFusionMode(FusionMode::Off); };
    auto enter_fused = [&]() { setFusionMode(FusionMode::On); };

    enter_unfused();
    Measurement eval_unfused = profileOnce(prof, eval_forward);
    enter_fused();
    Measurement eval_fused = profileOnce(prof, eval_forward);

    const std::vector<bench::Stats> eval_t = bench::runRoundRobin(
        {{enter_unfused, eval_forward}, {enter_fused, eval_forward}},
        reps);

    // -- Training forward+backward --
    layer.setTraining(true);
    rt.dropoutP = 0.1f;
    Tensor dout(x.shape());
    dout.fillNormal(data);
    auto train_step = [&]() {
        (void)layer.forward(x, mask, batch, seq);
        layer.zeroGrad();
        (void)layer.backward(dout);
    };
    setFusionMode(FusionMode::Off);
    Measurement train_unfused = profileOnce(prof, train_step);
    setFusionMode(FusionMode::On);
    Measurement train_fused = profileOnce(prof, train_step);
    const std::vector<bench::Stats> train_t = bench::runRoundRobin(
        {{enter_unfused, train_step}, {enter_fused, train_step}}, reps);
    layer.setTraining(false);

    // -- Serving throughput (closed loop) --
    BertConfig config;
    config.name = "bench-fusion-serve";
    config.numLayers = 2;
    config.dModel = d_model;
    config.numHeads = heads;
    config.dFf = d_ff;
    config.vocabSize = 1024;
    config.maxPositions = 128;
    config.typeVocab = 2;
    config.batch = 1;
    config.seqLen = config.maxPositions;
    config.numClasses = 2;
    NnRuntime serve_rt;
    BertClassifier clf(config, &serve_rt);
    Rng clf_init(7);
    clf.initialize(clf_init);
    clf.setTraining(false);
    const int serve_count = quick ? 16 : 64;
    // A fresh server per rep, built and torn down in the untimed
    // enter; the timed body is one burst of requests.
    ClassifierEngine engine(clf, /*pad_id=*/3);
    ServeOptions options;
    options.maxBatch = 8;
    options.maxWaitUs = 500;
    std::unique_ptr<InferenceServer> server;
    const auto serve_with = [&](FusionMode mode) {
        return [&, mode] {
            server.reset();
            setFusionMode(mode);
            server = std::make_unique<InferenceServer>(
                engine, BucketSpec({32, 64, 128}), options);
        };
    };
    const auto burst = [&] {
        serveBurst(*server, config.vocabSize, serve_count);
    };
    const std::vector<bench::Stats> serve_t = bench::runRoundRobin(
        {{serve_with(FusionMode::Off), burst},
         {serve_with(FusionMode::On), burst}},
        reps);
    server.reset();
    clearFusionModeOverride();

    bench::Report report("bench_fusion", args);
    report.config("d_model", static_cast<double>(d_model));
    report.config("heads", heads);
    report.config("d_ff", static_cast<double>(d_ff));
    report.config("batch", static_cast<double>(batch));
    report.config("seq", static_cast<double>(seq));
    report.config("reps", reps);
    report.config("serve_requests", serve_count);
    const auto timed = [&](const std::string &phase,
                           const std::vector<bench::Stats> &t,
                           const Measurement &unfused,
                           const Measurement &fused) {
        report.millis(phase + ".unfused_ms", t[0]);
        report.millis(phase + ".fused_ms", t[1]);
        report.stats(phase + ".speedup", "x", bench::pairedRatio(t[0], t[1]));
        report.value(phase + ".kernels_unfused",
                     static_cast<double>(unfused.kernels), "count");
        report.value(phase + ".kernels_fused",
                     static_cast<double>(fused.kernels), "count");
    };
    timed("eval", eval_t, eval_unfused, eval_fused);
    // Fig. 12 analytical prediction from the same runs' KernelStats:
    // the traffic ratio is the roofline memory-bound upper bound.
    report.value("eval.traffic_unfused", eval_unfused.bytes, "bytes");
    report.value("eval.traffic_fused", eval_fused.bytes, "bytes");
    report.value("eval.analytical_kernel_ratio",
                 static_cast<double>(eval_unfused.kernels) /
                     static_cast<double>(eval_fused.kernels),
                 "x");
    report.value("eval.analytical_traffic_ratio",
                 eval_unfused.bytes / eval_fused.bytes, "x");
    timed("train", train_t, train_unfused, train_fused);
    report.rate("serving.unfused_qps", "qps", serve_count, serve_t[0]);
    report.rate("serving.fused_qps", "qps", serve_count, serve_t[1]);
    report.stats("serving.speedup", "x",
                 bench::pairedRatio(serve_t[0], serve_t[1]));
    return report.emit();
}
