/**
 * @file
 * Umbrella header: include this to get the whole bertprof public API.
 *
 * Library map:
 *  - trace/   architecture-agnostic kernel traces of BERT training
 *  - perf/    analytical accelerator model (roofline + GEMM tiling)
 *  - dist/    data-parallel and tensor-slicing multi-device models
 *  - nmc/     near-memory-compute offload model
 *  - nn/ ops/ optim/ data/  the executable CPU substrate
 *  - io/      crash-safe checkpoint store
 *  - train/   hardened training loop (checkpoints + resume)
 *  - runtime/ CPU kernel profiler and fault injector
 *  - telemetry/ binary run-trace container, recorder, replay
 *  - core/    facade (Characterizer) and report rendering
 */

#ifndef BERTPROF_CORE_BERTPROF_H
#define BERTPROF_CORE_BERTPROF_H

#include "core/characterizer.h"
#include "core/report.h"
#include "core/trace_export.h"
#include "data/synthetic.h"
#include "dist/comm_model.h"
#include "dist/data_parallel.h"
#include "dist/tensor_slicing.h"
#include "dist/hierarchical_comm.h"
#include "dist/hybrid.h"
#include "dist/pipeline.h"
#include "dist/zero_sharding.h"
#include "io/checkpoint.h"
#include "nmc/dram.h"
#include "nmc/nmc_model.h"
#include "nn/bert_classifier.h"
#include "nn/bert_pretrainer.h"
#include "optim/adam.h"
#include "optim/grad_scaler.h"
#include "optim/lamb.h"
#include "optim/lr_schedule.h"
#include "optim/sgd.h"
#include "optim/unfused_adam.h"
#include "perf/energy.h"
#include "perf/footprint.h"
#include "perf/roofline.h"
#include "runtime/fault_injection.h"
#include "telemetry/recorder.h"
#include "telemetry/replay.h"
#include "trace/bert_trace_builder.h"
#include "train/trainer.h"
#include "util/csv.h"
#include "util/table.h"

#endif // BERTPROF_CORE_BERTPROF_H
