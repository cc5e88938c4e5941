/**
 * @file
 * The model-level oracle of the fused eval schedule: a training-mode
 * forward at dropout 0 runs the unfused per-op chain, which computes
 * the same function as the eval forward. These helpers produce that
 * forward's encoder output and head logits for the inputs an eval
 * entry point takes, so a test can compare the two.
 *
 * The training forward only runs at the config's shape, so inputs are
 * config.batch sequences of config.seqLen tokens. The heads replay
 * the modules' own op sequence (Linear::forward is gemm then bias)
 * on the model's parameters, looked up by name.
 */

#ifndef BERTPROF_TESTS_EVAL_ORACLE_H
#define BERTPROF_TESTS_EVAL_ORACLE_H

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/bert_classifier.h"
#include "nn/bert_pretrainer.h"
#include "ops/activation.h"
#include "ops/elementwise.h"
#include "ops/embedding.h"
#include "ops/gemm.h"
#include "ops/layernorm.h"

namespace bertprof {
namespace testing {

/** The parameter of `module` named `name`; aborts the test if absent. */
inline Parameter &
parameterNamed(Module &module, const std::string &name)
{
    for (Parameter *p : module.parameters())
        if (p->name == name)
            return *p;
    ADD_FAILURE() << "no parameter " << name;
    std::abort();
}

/** y = x W^T + b, the op sequence of Linear::forward. */
inline Tensor
linearForward(const Tensor &x, const Parameter &w, const Parameter &b)
{
    Tensor y(Shape({x.shape().dim(0), w.value.shape().dim(0)}));
    gemm(x, w.value, y, false, true);
    biasForward(y, b.value, y);
    return y;
}

/**
 * Encoder output [B*n, d] of a training-mode forward. Requires the
 * model's runtime at dropoutP = 0. `lengths` (empty = all full)
 * installs the per-sequence mask forwardEval builds from the same
 * argument. Leaves the model in eval mode with the dense mask.
 */
inline Tensor
trainingHidden(BertModel &model, const std::vector<std::int64_t> &tokens,
               const std::vector<std::int64_t> &segments,
               const std::vector<std::int64_t> &lengths)
{
    model.setTraining(true);
    if (!lengths.empty())
        model.setPaddingMask(lengths);
    Tensor hidden = model.forward(tokens, segments);
    model.clearPaddingMask();
    model.setTraining(false);
    return hidden;
}

/** The oracle of BertClassifier::forwardLogitsEval at the config's
 * shape: [B, numClasses]. */
inline Tensor
trainingClassifierLogits(BertClassifier &clf,
                         const std::vector<std::int64_t> &tokens,
                         const std::vector<std::int64_t> &segments,
                         const std::vector<std::int64_t> &lengths)
{
    const BertConfig &config = clf.config();
    const Tensor hidden =
        trainingHidden(clf.model(), tokens, segments, lengths);
    std::vector<std::int64_t> cls_positions;
    for (std::int64_t b = 0; b < config.batch; ++b)
        cls_positions.push_back(b * config.seqLen);
    Tensor cls(Shape({config.batch, config.dModel}));
    embeddingForward(hidden, cls_positions, cls);
    const Tensor pooled_pre =
        linearForward(cls, parameterNamed(clf, "pooler.w"),
                      parameterNamed(clf, "pooler.b"));
    Tensor pooled(pooled_pre.shape());
    tanhForward(pooled_pre, pooled);
    return linearForward(pooled, parameterNamed(clf, "classifier.w"),
                         parameterNamed(clf, "classifier.b"));
}

/** The oracle of BertPretrainer::mlmLogitsEval at the config's shape:
 * [|positions|, vocabSize]. */
inline Tensor
trainingMlmLogits(BertPretrainer &model,
                  const std::vector<std::int64_t> &tokens,
                  const std::vector<std::int64_t> &segments,
                  const std::vector<std::int64_t> &lengths,
                  const std::vector<std::int64_t> &positions)
{
    const BertConfig &config = model.config();
    const Tensor hidden =
        trainingHidden(model.model(), tokens, segments, lengths);
    const auto p = static_cast<std::int64_t>(positions.size());
    Tensor mlm_in(Shape({p, config.dModel}));
    embeddingForward(hidden, positions, mlm_in);
    const Tensor transformed =
        linearForward(mlm_in, parameterNamed(model, "mlm.transform.w"),
                      parameterNamed(model, "mlm.transform.b"));
    Tensor activated(transformed.shape());
    geluForward(transformed, activated);
    Tensor normed(activated.shape());
    Tensor mean(Shape({p}));
    Tensor rstd(Shape({p}));
    layerNormForward(activated,
                     parameterNamed(model, "mlm.ln.gamma").value,
                     parameterNamed(model, "mlm.ln.beta").value, normed,
                     mean, rstd);
    Tensor logits(Shape({p, config.vocabSize}));
    gemm(normed, model.model().tokenEmbedding().value, logits, false,
         true);
    biasForward(logits, parameterNamed(model, "mlm.decoder.bias").value,
                logits);
    return logits;
}

} // namespace testing
} // namespace bertprof

#endif // BERTPROF_TESTS_EVAL_ORACLE_H
