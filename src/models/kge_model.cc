#include "models/kge_model.h"

#include <algorithm>
#include <numeric>

#include "la/vector_ops.h"
#include "models/complex.h"
#include "models/conve.h"
#include "models/tcomplex.h"
#include "models/distmult.h"
#include "models/rescal.h"
#include "models/rotate.h"
#include "models/transe.h"
#include "models/tucker.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgeval {

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kTransE:
      return "TransE";
    case ModelType::kDistMult:
      return "DistMult";
    case ModelType::kComplEx:
      return "ComplEx";
    case ModelType::kRescal:
      return "RESCAL";
    case ModelType::kRotatE:
      return "RotatE";
    case ModelType::kTuckEr:
      return "TuckER";
    case ModelType::kConvE:
      return "ConvE";
    case ModelType::kTComplEx:
      return "TComplEx";
  }
  return "?";
}

Result<ModelType> ParseModelType(const std::string& name) {
  for (ModelType type :
       {ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
        ModelType::kRescal, ModelType::kRotatE, ModelType::kTuckEr,
        ModelType::kConvE, ModelType::kTComplEx}) {
    if (name == ModelTypeName(type)) return type;
  }
  return Status::NotFound(StrFormat("unknown model '%s'", name.c_str()));
}

KgeModel::KgeModel(ModelType type, int32_t num_entities,
                   int32_t num_relations, ModelOptions options)
    : type_(type),
      num_entities_(num_entities),
      num_relations_(num_relations),
      options_(options) {}

void KgeModel::BuildKernelQueries(const int32_t*, size_t, int32_t,
                                  QueryDirection, Matrix*) const {
  KGEVAL_CHECK(false) << name()
                      << " has no kernel surface (candidate_embeddings() is "
                         "null) yet BuildKernelQueries was reached";
}

void KgeModel::ScoreWithQuery(const Matrix& queries, size_t q,
                              const int32_t* candidates, size_t n,
                              float* out) const {
  const Matrix* entities = candidate_embeddings();
  KGEVAL_DCHECK(entities != nullptr);
  const Matrix* bias = candidate_bias();
  const float* qrow = queries.Row(q);
  const size_t dim = queries.cols();
  KGEVAL_DCHECK(dim == entities->cols());
  switch (batch_kernel()) {
    case BatchKernel::kDot:
      for (size_t c = 0; c < n; ++c) {
        const int32_t id = candidates[c];
        out[c] = Dot(qrow, entities->Row(static_cast<size_t>(id)), dim);
        if (bias != nullptr) out[c] += bias->At(static_cast<size_t>(id), 0);
      }
      return;
    case BatchKernel::kNegL1:
      for (size_t c = 0; c < n; ++c) {
        out[c] = -L1Distance(
            qrow, entities->Row(static_cast<size_t>(candidates[c])), dim);
      }
      return;
    case BatchKernel::kNegComplexDist: {
      const float eps = batch_kernel_eps();
      for (size_t c = 0; c < n; ++c) {
        out[c] = NegComplexDistance(
            qrow, entities->Row(static_cast<size_t>(candidates[c])), dim / 2,
            eps);
      }
      return;
    }
  }
}

void KgeModel::ScorePool(const Matrix& queries, const CandidateBlock& block,
                         float* pool_scores) const {
  KGEVAL_DCHECK(block.prepared);
  const size_t n = block.size();
  switch (batch_kernel()) {
    case BatchKernel::kDot:
      DotScoreTile(queries, block.gathered_t, pool_scores);
      if (!block.bias.empty()) {
        for (size_t q = 0; q < queries.rows(); ++q) {
          float* row = pool_scores + q * n;
          for (size_t c = 0; c < n; ++c) row[c] += block.bias[c];
        }
      }
      return;
    case BatchKernel::kNegL1:
      NegL1ScoreTile(queries, block.gathered_t, pool_scores);
      return;
    case BatchKernel::kNegComplexDist:
      NegComplexDistScoreTile(queries, block.gathered_t, batch_kernel_eps(),
                              pool_scores);
      return;
  }
}

void KgeModel::ScoreCandidates(int32_t anchor, int32_t relation,
                               QueryDirection direction,
                               const int32_t* candidates, size_t n,
                               float* out) const {
  KGEVAL_CHECK(candidate_embeddings() != nullptr)
      << name() << " must override ScoreCandidates or expose a kernel surface";
  Matrix queries;
  BuildKernelQueries(&anchor, 1, relation, direction, &queries);
  ScoreWithQuery(queries, 0, candidates, n, out);
}

void KgeModel::ScorePairs(const int32_t* anchors, const int32_t* candidates,
                          size_t num_queries, size_t candidates_per_query,
                          int32_t relation, QueryDirection direction,
                          float* out) const {
  if (candidate_embeddings() == nullptr) {
    for (size_t q = 0; q < num_queries; ++q) {
      ScoreCandidates(anchors[q], relation, direction,
                      candidates + q * candidates_per_query,
                      candidates_per_query, out + q * candidates_per_query);
    }
    return;
  }
  // One query construction per anchor, reused across its k candidates — the
  // fusion that matters for ConvE/TuckER, whose query construction dominates
  // per-triple cost.
  Matrix queries;
  BuildKernelQueries(anchors, num_queries, relation, direction, &queries);
  for (size_t q = 0; q < num_queries; ++q) {
    ScoreWithQuery(queries, q, candidates + q * candidates_per_query,
                   candidates_per_query, out + q * candidates_per_query);
  }
}

void KgeModel::FillCandidateIds(const int32_t* candidates, size_t n,
                                CandidateBlock* block) {
  block->ids.assign(candidates, candidates + n);
  block->sorted = std::is_sorted(candidates, candidates + n);
  block->prepared = false;
  block->bias.clear();
  block->quantized = false;
  block->q8.clear();
  block->q8i.clear();
  block->q8_colsum.clear();
  block->q8_scale.clear();
  block->q8_err.clear();
  block->q8_amp.clear();
  block->q8_bias_amp = 0.0f;
}

void KgeModel::PrepareCandidates(const int32_t* candidates, size_t n,
                                 CandidateBlock* block) const {
  FillCandidateIds(candidates, n, block);
  const Matrix* entities = candidate_embeddings();
  if (entities == nullptr) return;
  GatherRowsT(*entities, candidates, n, &block->gathered_t);
  const Matrix* bias = candidate_bias();
  if (bias != nullptr) {
    block->bias.resize(n);
    for (size_t c = 0; c < n; ++c) {
      block->bias[c] = bias->At(static_cast<size_t>(candidates[c]), 0);
    }
  }
  block->prepared = true;
}

void KgeModel::ScoreBlock(const int32_t* anchors, const int32_t* truths,
                          size_t num_queries, int32_t relation,
                          QueryDirection direction,
                          const CandidateBlock& block, float* pool_scores,
                          float* truth_scores) const {
  if (!block.prepared) {
    // Fallback for models without a kernel surface: per-query loops over
    // their ScoreCandidates override.
    const size_t n = block.size();
    for (size_t q = 0; q < num_queries; ++q) {
      if (pool_scores != nullptr) {
        ScoreCandidates(anchors[q], relation, direction, block.ids.data(), n,
                        pool_scores + q * n);
      }
      if (truth_scores != nullptr) {
        ScoreCandidates(anchors[q], relation, direction, &truths[q], 1,
                        &truth_scores[q]);
      }
    }
    return;
  }
  // Fused path: one query construction feeds both the batched pool kernel
  // and the per-query truth reduction.
  Matrix queries;
  BuildKernelQueries(anchors, num_queries, relation, direction, &queries);
  if (pool_scores != nullptr) ScorePool(queries, block, pool_scores);
  if (truth_scores != nullptr) {
    for (size_t q = 0; q < num_queries; ++q) {
      ScoreWithQuery(queries, q, &truths[q], 1, &truth_scores[q]);
    }
  }
}

void ScoreTriples(const KgeModel& model, const Triple* triples, size_t n,
                  float* out) {
  // Bucket triple indices by kernel relation (the plain relation for
  // static models, the virtual (relation, time) id for time-aware ones),
  // then score each bucket in one ScorePairs call. Scatter back so out[i]
  // still matches triples[i].
  std::vector<std::vector<int32_t>> by_relation(
      model.num_kernel_relations());
  for (size_t i = 0; i < n; ++i) {
    by_relation[model.KernelRelation(triples[i])].push_back(
        static_cast<int32_t>(i));
  }
  std::vector<int32_t> anchors, cands;
  std::vector<float> scores;
  for (int32_t r = 0; r < model.num_kernel_relations(); ++r) {
    const std::vector<int32_t>& idx = by_relation[r];
    if (idx.empty()) continue;
    anchors.resize(idx.size());
    cands.resize(idx.size());
    scores.resize(idx.size());
    for (size_t i = 0; i < idx.size(); ++i) {
      anchors[i] = triples[idx[i]].head;
      cands[i] = triples[idx[i]].tail;
    }
    model.ScorePairs(anchors.data(), cands.data(), idx.size(), 1, r,
                     QueryDirection::kTail, scores.data());
    for (size_t i = 0; i < idx.size(); ++i) out[idx[i]] = scores[i];
  }
}

void ScoreTriplesWithNegatives(const KgeModel& model, const Triple* positives,
                               size_t n, const Triple* negatives, size_t k,
                               float* pos_out, float* neg_out) {
  if (k == 0) {
    ScoreTriples(model, positives, n, pos_out);
    return;
  }
  // Group by the positives' kernel relation; each positive's k corruptions
  // share its head, relation, and timestamp, so one ScorePairs row of
  // k + 1 candidates ([truth, corruptions...]) scores them all off one
  // query construction.
  std::vector<std::vector<int32_t>> by_relation(
      model.num_kernel_relations());
  for (size_t i = 0; i < n; ++i) {
    by_relation[model.KernelRelation(positives[i])].push_back(
        static_cast<int32_t>(i));
  }
  const size_t stride = k + 1;
  std::vector<int32_t> anchors, cands;
  std::vector<float> scores;
  for (int32_t r = 0; r < model.num_kernel_relations(); ++r) {
    const std::vector<int32_t>& idx = by_relation[r];
    if (idx.empty()) continue;
    anchors.resize(idx.size());
    cands.resize(idx.size() * stride);
    scores.resize(idx.size() * stride);
    for (size_t i = 0; i < idx.size(); ++i) {
      const size_t p = static_cast<size_t>(idx[i]);
      anchors[i] = positives[p].head;
      cands[i * stride] = positives[p].tail;
      for (size_t j = 0; j < k; ++j) {
        const Triple& neg = negatives[p * k + j];
        KGEVAL_DCHECK(neg.head == positives[p].head &&
                      neg.relation == positives[p].relation);
        cands[i * stride + 1 + j] = neg.tail;
      }
    }
    model.ScorePairs(anchors.data(), cands.data(), idx.size(), stride, r,
                     QueryDirection::kTail, scores.data());
    for (size_t i = 0; i < idx.size(); ++i) {
      const size_t p = static_cast<size_t>(idx[i]);
      pos_out[p] = scores[i * stride];
      for (size_t j = 0; j < k; ++j) {
        neg_out[p * k + j] = scores[i * stride + 1 + j];
      }
    }
  }
}

void KgeModel::ScoreAll(int32_t anchor, int32_t relation,
                        QueryDirection direction, float* out) const {
  std::vector<int32_t> all(num_entities_);
  std::iota(all.begin(), all.end(), 0);
  ScoreCandidates(anchor, relation, direction, all.data(), all.size(), out);
}

float KgeModel::ScoreTriple(const Triple& t) const {
  float score = 0.0f;
  ScoreCandidates(t.head, KernelRelation(t), QueryDirection::kTail, &t.tail,
                  1, &score);
  return score;
}

Result<std::unique_ptr<KgeModel>> CreateModel(ModelType type,
                                              int32_t num_entities,
                                              int32_t num_relations,
                                              const ModelOptions& options) {
  if (num_entities <= 0 || num_relations <= 0) {
    return Status::InvalidArgument("entity/relation counts must be positive");
  }
  if (options.dim <= 0) {
    return Status::InvalidArgument("embedding dim must be positive");
  }
  switch (type) {
    case ModelType::kTransE:
      return {std::unique_ptr<KgeModel>(
          new TransE(num_entities, num_relations, options))};
    case ModelType::kDistMult:
      return {std::unique_ptr<KgeModel>(
          new DistMult(num_entities, num_relations, options))};
    case ModelType::kComplEx:
      if (options.dim % 2 != 0) {
        return Status::InvalidArgument("ComplEx needs an even dim");
      }
      return {std::unique_ptr<KgeModel>(
          new ComplEx(num_entities, num_relations, options))};
    case ModelType::kRescal:
      return {std::unique_ptr<KgeModel>(
          new Rescal(num_entities, num_relations, options))};
    case ModelType::kRotatE:
      if (options.dim % 2 != 0) {
        return Status::InvalidArgument("RotatE needs an even dim");
      }
      return {std::unique_ptr<KgeModel>(
          new RotatE(num_entities, num_relations, options))};
    case ModelType::kTuckEr:
      return {std::unique_ptr<KgeModel>(
          new TuckEr(num_entities, num_relations, options))};
    case ModelType::kConvE:
      return ConvE::Create(num_entities, num_relations, options);
    case ModelType::kTComplEx:
      if (options.dim % 2 != 0) {
        return Status::InvalidArgument("TComplEx needs an even dim");
      }
      return {std::unique_ptr<KgeModel>(
          new TComplEx(num_entities, num_relations, options))};
  }
  return Status::InvalidArgument("unhandled model type");
}

}  // namespace kgeval
