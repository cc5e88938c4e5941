#include "train/trainer.h"

#include <chrono>
#include <limits>

#include "runtime/fault_injection.h"
#include "telemetry/recorder.h"
#include "util/logging.h"

namespace bertprof {

namespace {

/**
 * The architecture fields that determine parameter shapes and the
 * batch fields that determine the sample stream. A checkpoint from a
 * differently shaped run must be rejected, not partially loaded.
 */
struct ConfigField {
    const char *name;
    std::int64_t value;
};

std::vector<ConfigField>
fingerprint(const BertConfig &config)
{
    return {
        {"cfg.layers", config.numLayers},
        {"cfg.dmodel", config.dModel},
        {"cfg.heads", config.numHeads},
        {"cfg.dff", config.dFf},
        {"cfg.vocab", config.vocabSize},
        {"cfg.positions", config.maxPositions},
        {"cfg.batch", config.batch},
        {"cfg.seqlen", config.seqLen},
        {"cfg.maxpred", config.maxPredictions},
    };
}

} // namespace

const char *
stepStatusName(StepStatus status)
{
    switch (status) {
    case StepStatus::Applied:
        return "applied";
    case StepStatus::SkippedNonFiniteLoss:
        return "skipped-nonfinite-loss";
    case StepStatus::SkippedNonFiniteGrad:
        return "skipped-nonfinite-grad";
    }
    return "unknown";
}

Trainer::Trainer(BertPretrainer &model, Optimizer &optimizer,
                 GradScaler &scaler, const LrSchedule &schedule,
                 SyntheticDataset &dataset, NnRuntime &rt,
                 TrainerOptions options)
    : model_(model), optimizer_(optimizer), scaler_(scaler),
      schedule_(schedule), dataset_(dataset), rt_(rt),
      options_(std::move(options)), params_(model.parameters())
{
    if (options_.checkpointEvery > 0) {
        BP_REQUIRE(!options_.checkpointDir.empty());
        CheckpointManagerOptions mgr;
        mgr.dir = options_.checkpointDir;
        mgr.keepLast = options_.keepLast;
        mgr.ioRetries = options_.ioRetries;
        mgr.ioBackoffMs = options_.ioBackoffMs;
        manager_ = std::make_unique<CheckpointManager>(std::move(mgr));
    }
}

namespace {

std::int64_t
elapsedNs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

TrainStepResult
Trainer::trainStep()
{
    const auto stepStart = std::chrono::steady_clock::now();
    TrainStepResult result;
    result.lr = schedule_.at(iteration_);
    optimizer_.setLearningRate(result.lr);

    const PretrainBatch batch = dataset_.nextBatch();
    model_.zeroGrad();
    result.metrics = model_.forwardBackward(batch, scaler_.scale());

    if (!result.metrics.lossFinite()) {
        // The head gradients are partially written and poisoned;
        // discard them and back off the scale, exactly as a gradient
        // overflow would be handled.
        model_.zeroGrad();
        scaler_.update(false);
        result.status = StepStatus::SkippedNonFiniteLoss;
        BP_LOG(Warn) << "iter " << iteration_
                     << ": non-finite loss, step skipped (scale "
                        "backed off to "
                     << scaler_.scale() << ")";
    } else {
        // Fault site: contaminate one gradient the way FP16 overflow
        // would, so the scaler's skip-step path is exercised.
        switch (faultAt("train.grad")) {
        case FaultKind::NaN:
            params_.front()->grad.data()[0] =
                std::numeric_limits<float>::quiet_NaN();
            break;
        case FaultKind::Inf:
            params_.front()->grad.data()[0] =
                std::numeric_limits<float>::infinity();
            break;
        default:
            break;
        }

        const bool finite = scaler_.unscale(params_);
        scaler_.update(finite);
        if (finite) {
            optimizer_.step(params_);
            result.status = StepStatus::Applied;
        } else {
            result.status = StepStatus::SkippedNonFiniteGrad;
            BP_LOG(Warn) << "iter " << iteration_
                         << ": non-finite gradient, step skipped "
                            "(scale backed off to "
                         << scaler_.scale() << ")";
        }
    }

    ++iteration_;

    const std::int64_t stepNs = elapsedNs(stepStart);
    TraceRecorder::instance().onTrainStep(
        iteration_ - 1, static_cast<int>(result.status), stepNs,
        static_cast<float>(result.metrics.totalLoss()), result.lr);

    if (manager_ && iteration_ % options_.checkpointEvery == 0) {
        const auto ckptStart = std::chrono::steady_clock::now();
        result.checkpointStatus = saveCheckpoint();
        result.checkpointSaved = result.checkpointStatus.ok();
        const std::int64_t ckptNs = elapsedNs(ckptStart);
        TraceRecorder::instance().onCheckpoint(
            iteration_, result.checkpointSaved, ckptNs);
        if (!result.checkpointSaved) {
            BP_LOG(Warn) << "iter " << iteration_
                         << ": checkpoint save failed: "
                         << result.checkpointStatus.toString();
        }
    }
    return result;
}

std::string
Trainer::buildPayload()
{
    StateWriter writer;
    writer.i64("trainer.iteration", iteration_);
    for (const ConfigField &field : fingerprint(model_.config()))
        writer.i64(field.name, field.value);
    model_.saveParameters(writer);
    optimizer_.saveState(params_, writer);
    scaler_.saveState(writer);
    writer.str("trainer.rng.dropout", rt_.rng.serialize());
    writer.str("trainer.rng.data", dataset_.rngState());
    return writer.payload();
}

IoStatus
Trainer::restorePayload(const std::string &payload, std::int64_t step)
{
    StateReader reader(payload);
    std::int64_t iteration = 0;
    if (!reader.i64("trainer.iteration", iteration))
        return reader.status();
    if (iteration != step) {
        return IoStatus::failure(
            IoError::BadFormat,
            "checkpoint file for step " + std::to_string(step) +
                " holds iteration " + std::to_string(iteration));
    }
    for (const ConfigField &field : fingerprint(model_.config())) {
        std::int64_t value = 0;
        if (!reader.i64(field.name, value))
            return reader.status();
        if (value != field.value) {
            return IoStatus::failure(
                IoError::BadFormat,
                std::string("checkpoint ") + field.name + "=" +
                    std::to_string(value) +
                    " does not match this run's " +
                    std::to_string(field.value));
        }
    }
    IoStatus status = model_.loadParameters(reader);
    if (!status.ok())
        return status;
    status = optimizer_.loadState(params_, reader);
    if (!status.ok())
        return status;
    status = scaler_.loadState(reader);
    if (!status.ok())
        return status;
    std::string dropout_rng, data_rng;
    if (!reader.str("trainer.rng.dropout", dropout_rng) ||
        !reader.str("trainer.rng.data", data_rng)) {
        return reader.status();
    }
    if (!rt_.rng.deserialize(dropout_rng)) {
        return IoStatus::failure(IoError::BadFormat,
                                 "malformed dropout RNG state");
    }
    if (!dataset_.restoreRngState(data_rng)) {
        return IoStatus::failure(IoError::BadFormat,
                                 "malformed dataset RNG state");
    }
    iteration_ = iteration;
    return IoStatus::success();
}

IoStatus
Trainer::saveCheckpoint()
{
    BP_REQUIRE(checkpointingEnabled());
    return manager_->save(iteration_, buildPayload());
}

IoStatus
Trainer::resumeLatest()
{
    BP_REQUIRE(checkpointingEnabled());
    std::string payload;
    std::int64_t step = 0;
    IoStatus status = manager_->loadLatest(payload, step);
    if (!status.ok())
        return status;
    status = restorePayload(payload, step);
    if (status.ok()) {
        BP_LOG(Info) << "resumed from checkpoint at iteration "
                     << step;
    }
    return status;
}

} // namespace bertprof
