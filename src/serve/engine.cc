#include "serve/engine.h"

#include "util/logging.h"

namespace bertprof {

namespace {

/**
 * Flatten a batch into padded [B*seq] token/segment vectors plus the
 * per-sequence real lengths the attention mask is built from.
 */
void
packBatch(const Batch &batch, std::int64_t pad_id,
          std::vector<std::int64_t> &tokens,
          std::vector<std::int64_t> &segments,
          std::vector<std::int64_t> &lengths)
{
    const std::int64_t seq = batch.paddedLen;
    const std::int64_t b_count =
        static_cast<std::int64_t>(batch.requests.size());
    tokens.assign(static_cast<std::size_t>(b_count * seq), pad_id);
    segments.assign(static_cast<std::size_t>(b_count * seq), 0);
    lengths.resize(static_cast<std::size_t>(b_count));
    for (std::int64_t b = 0; b < b_count; ++b) {
        const InferRequest &req =
            batch.requests[static_cast<std::size_t>(b)].request;
        const std::int64_t len =
            static_cast<std::int64_t>(req.tokenIds.size());
        BP_REQUIRE(len >= 1 && len <= seq);
        BP_REQUIRE(req.segmentIds.size() == req.tokenIds.size());
        lengths[static_cast<std::size_t>(b)] = len;
        const std::size_t base = static_cast<std::size_t>(b * seq);
        for (std::int64_t t = 0; t < len; ++t) {
            tokens[base + static_cast<std::size_t>(t)] =
                req.tokenIds[static_cast<std::size_t>(t)];
            segments[base + static_cast<std::size_t>(t)] =
                req.segmentIds[static_cast<std::size_t>(t)];
        }
    }
}

/** Copy `rows` consecutive logit rows into one reply. */
void
fillReply(const Tensor &logits, std::int64_t first_row,
          std::int64_t rows, InferReply &reply)
{
    const std::int64_t cols = logits.shape().dim(1);
    reply.ok = true;
    reply.rows = rows;
    reply.cols = cols;
    reply.logits.resize(static_cast<std::size_t>(rows * cols));
    const float *src = logits.data() + first_row * cols;
    for (std::int64_t i = 0; i < rows * cols; ++i)
        reply.logits[static_cast<std::size_t>(i)] = src[i];
}

} // namespace

ClassifierEngine::ClassifierEngine(BertClassifier &model,
                                   std::int64_t pad_id)
    : model_(model), padId_(pad_id)
{
    BP_REQUIRE(!model_.isTraining());
}

std::int64_t
ClassifierEngine::maxPositions() const
{
    return model_.config().maxPositions;
}

void
ClassifierEngine::run(const Batch &batch,
                      std::vector<InferReply> &replies)
{
    const std::int64_t b_count =
        static_cast<std::int64_t>(batch.requests.size());
    BP_REQUIRE(b_count >= 1);
    replies.resize(static_cast<std::size_t>(b_count));

    std::vector<std::int64_t> tokens, segments, lengths;
    packBatch(batch, padId_, tokens, segments, lengths);
    Tensor logits = model_.forwardLogitsEval(tokens, segments, b_count,
                                             batch.paddedLen, lengths);
    for (std::int64_t b = 0; b < b_count; ++b) {
        InferReply &reply = replies[static_cast<std::size_t>(b)];
        reply.id = batch.requests[static_cast<std::size_t>(b)].request.id;
        fillReply(logits, b, 1, reply);
    }
}

MlmEngine::MlmEngine(BertPretrainer &model, std::int64_t pad_id)
    : model_(model), padId_(pad_id)
{
    BP_REQUIRE(!model_.isTraining());
}

std::int64_t
MlmEngine::maxPositions() const
{
    return model_.config().maxPositions;
}

void
MlmEngine::run(const Batch &batch, std::vector<InferReply> &replies)
{
    const std::int64_t b_count =
        static_cast<std::int64_t>(batch.requests.size());
    BP_REQUIRE(b_count >= 1);
    replies.resize(static_cast<std::size_t>(b_count));

    std::vector<std::int64_t> tokens, segments, lengths;
    packBatch(batch, padId_, tokens, segments, lengths);

    // Flatten the per-request masked positions into batch-relative
    // indices, remembering each request's slice of the logit rows.
    std::vector<std::int64_t> positions;
    std::vector<std::int64_t> first_row(
        static_cast<std::size_t>(b_count));
    for (std::int64_t b = 0; b < b_count; ++b) {
        const InferRequest &req =
            batch.requests[static_cast<std::size_t>(b)].request;
        first_row[static_cast<std::size_t>(b)] =
            static_cast<std::int64_t>(positions.size());
        const std::int64_t len = lengths[static_cast<std::size_t>(b)];
        for (std::int64_t pos : req.mlmPositions) {
            BP_REQUIRE(pos >= 0 && pos < len);
            positions.push_back(b * batch.paddedLen + pos);
        }
    }
    for (std::int64_t b = 0; b < b_count; ++b) {
        InferReply &reply = replies[static_cast<std::size_t>(b)];
        reply.id = batch.requests[static_cast<std::size_t>(b)].request.id;
    }
    if (positions.empty()) {
        // Nothing to decode anywhere in the batch: every reply is an
        // empty (0-row) success without touching the model.
        for (auto &reply : replies) {
            reply.ok = true;
            reply.rows = 0;
            reply.cols = 0;
        }
        return;
    }

    Tensor logits = model_.mlmLogitsEval(tokens, segments, b_count,
                                         batch.paddedLen, lengths,
                                         positions);
    for (std::int64_t b = 0; b < b_count; ++b) {
        const std::int64_t start = first_row[static_cast<std::size_t>(b)];
        const std::int64_t end =
            b + 1 < b_count ? first_row[static_cast<std::size_t>(b + 1)]
                            : static_cast<std::int64_t>(positions.size());
        InferReply &reply = replies[static_cast<std::size_t>(b)];
        if (end > start) {
            fillReply(logits, start, end - start, reply);
        } else {
            reply.ok = true;
            reply.rows = 0;
            reply.cols = 0;
        }
    }
}

} // namespace bertprof
