#ifndef KGEVAL_MODELS_KGE_MODEL_H_
#define KGEVAL_MODELS_KGE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/triple.h"
#include "la/adam.h"
#include "la/matrix.h"
#include "util/status.h"

namespace kgeval {

/// The KGC models evaluated in the paper (Section 5.2), plus TComplEx
/// (Lacroix et al.), the temporal KBC model the temporal evaluation
/// protocol is proven against.
enum class ModelType {
  kTransE = 0,
  kDistMult,
  kComplEx,
  kRescal,
  kRotatE,
  kTuckEr,
  kConvE,
  kTComplEx,
};

/// The enum's last value, for range checks on serialized model types
/// (checkpoint headers). Keep in sync when appending a model.
constexpr ModelType kLastModelType = ModelType::kTComplEx;

const char* ModelTypeName(ModelType type);
Result<ModelType> ParseModelType(const std::string& name);

/// Construction/optimization options shared by all models.
struct ModelOptions {
  int32_t dim = 32;            // Entity embedding width.
  int32_t relation_dim = 0;    // 0 = model default (dim, or dim^2 for RESCAL).
  int32_t num_timestamps = 0;  // Timestamp vocabulary (time-aware models;
                               // 0 = static / single timestamp).
  AdamOptions adam;
  float l2 = 0.0f;             // Weight decay on touched rows.
  uint64_t seed = 7;
};

/// The reduction family a model's prepared-pool scoring collapses to once
/// its per-anchor query rows are built. Every model folds (anchor, relation)
/// into query vectors (BuildKernelQueries); what remains is one of three
/// batched reductions against the candidate tile, dispatched through the
/// runtime-selected ScoreKernels table (la/kernels).
enum class BatchKernel {
  kDot = 0,         // score = q . e (+ per-entity bias when candidate_bias()).
  kNegL1,           // score = -||q - e||_1 (translational models).
  kNegComplexDist,  // score = -sum_j sqrt(dre^2 + dim^2 + eps), split re/im.
};

/// A candidate pool prepared once and scored many times. PrepareCandidates
/// fills the pool's ids plus a model-specific gathered layout: the dot- and
/// distance-kernel models store the pool's entity embeddings transposed
/// (dim x n, candidates contiguous — for ComplEx/RotatE the top/bottom
/// halves of the tile are the split re/im planes); ConvE additionally
/// gathers the per-candidate entity bias. Preparing costs one gather +
/// transpose; every subsequent ScoreBlock call against the block reuses it.
///
/// QuantizeCandidateBlock (eval/screen.h) can additionally attach an int8
/// sidecar of the tile for the full evaluator's screening pass: per-dim
/// symmetric quantization with the exact per-dim reconstruction-error and
/// magnitude bounds the screener's conservative band test needs.
struct CandidateBlock {
  std::vector<int32_t> ids;  // The pool, in caller order.
  bool sorted = false;       // ids are non-decreasing (a pool invariant the
                             // rankers exploit; computed once here).
  bool prepared = false;     // Model-specific layout was filled in.
  Matrix gathered_t;         // Transposed candidate tile (see above).
  std::vector<float> bias;   // ConvE: per-candidate entity bias.

  bool quantized = false;       // int8 sidecar was filled in.
  std::vector<int8_t> q8;       // dim x n int8 tile, same transposed layout.
  std::vector<int8_t> q8i;      // Same values quad-interleaved for the
                                // integer dot kernel: ceil(dim/4) groups of
                                // 4 dims, n candidates x 4 bytes per group,
                                // zero-padded past dim.
  std::vector<int32_t> q8_colsum;  // Per-candidate sum of its q8 bytes
                                   // (removes the +128 query offset).
  std::vector<float> q8_scale;  // Per-dim dequantization scale.
  std::vector<float> q8_err;    // Per-dim max |exact - dequantized|.
  std::vector<float> q8_amp;    // Per-dim max |exact| (fp-slack term).
  float q8_bias_amp = 0.0f;     // max |bias| (0 when the model has none).

  size_t size() const { return ids.size(); }
};

/// A knowledge-graph embedding model: scores triples and supports per-triple
/// gradient updates. Scoring is thread-safe; UpdateTriple is hogwild-style
/// (concurrent updates race benignly on disjoint rows, as is standard for
/// CPU embedding training).
class KgeModel {
 public:
  KgeModel(ModelType type, int32_t num_entities, int32_t num_relations,
           ModelOptions options);
  virtual ~KgeModel() = default;

  KgeModel(const KgeModel&) = delete;
  KgeModel& operator=(const KgeModel&) = delete;

  ModelType type() const { return type_; }
  const char* name() const { return ModelTypeName(type_); }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  const ModelOptions& options() const { return options_; }

  /// The relation id the scoring/update kernels expect for a triple.
  /// Time-aware models fold the timestamp into a virtual id
  /// (relation + num_relations * time) so the kernel interface — built
  /// around a per-block relation id — carries temporal queries unchanged;
  /// static models return the relation itself. Callers that batch by
  /// relation (trainers, triple scorers, the slot-major evaluators) route
  /// through this so blocks stay kernel-homogeneous.
  virtual int32_t KernelRelation(const Triple& t) const { return t.relation; }

  /// Size of the kernel relation id space ([0, num_kernel_relations));
  /// num_relations * num_timestamps for time-aware models.
  virtual int32_t num_kernel_relations() const { return num_relations_; }

  /// --- Kernel surface -------------------------------------------------------
  /// The concrete models describe themselves to the generic scoring engine
  /// through four hooks instead of overriding the scoring methods: which
  /// batched reduction they collapse to, the embedding table candidates are
  /// gathered from, an optional per-entity bias, and how to fold
  /// (anchor, relation, direction) into per-query kernel rows. Everything
  /// else — single-query scoring, pair scoring, pool preparation, fused
  /// blocks, screening — is implemented once in the base class on top of
  /// these. A model (e.g. a test fake) that returns nullptr from
  /// candidate_embeddings() opts out and must override ScoreCandidates;
  /// the generic engine then falls back to per-query loops over it.

  /// The reduction family the model's scoring collapses to.
  virtual BatchKernel batch_kernel() const { return BatchKernel::kDot; }

  /// Epsilon inside the per-coordinate sqrt for kNegComplexDist (RotatE).
  virtual float batch_kernel_eps() const { return 0.0f; }

  /// The table candidate rows are drawn from, or nullptr when the model has
  /// no kernel surface (fallback scoring via ScoreCandidates overrides).
  virtual const Matrix* candidate_embeddings() const { return nullptr; }

  /// Optional per-entity bias column (num_entities x 1), added to kDot
  /// scores after the reduction (ConvE). nullptr = no bias.
  virtual const Matrix* candidate_bias() const { return nullptr; }

  /// Folds each (anchors[q], relation, direction) query into one kernel row:
  /// resizes `queries` to num_queries x kernel-dim and fills row q with the
  /// vector whose batch_kernel() reduction against an entity row is the
  /// model's score. Direction-symmetric models ignore `direction`.
  virtual void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                                  int32_t relation, QueryDirection direction,
                                  Matrix* queries) const;

  /// Scores candidates[0..n) against query row q of a BuildKernelQueries
  /// matrix, reading raw embedding rows (no prepared tile). This is the
  /// scalar reference reduction: the batched tile path is bit-identical to
  /// it per cell. Requires a kernel surface.
  void ScoreWithQuery(const Matrix& queries, size_t q,
                      const int32_t* candidates, size_t n, float* out) const;

  /// Scores every query row against a prepared pool through the active
  /// dispatch kernel: pool_scores[q * block.size() + c]. Requires a kernel
  /// surface and a prepared block.
  void ScorePool(const Matrix& queries, const CandidateBlock& block,
                 float* pool_scores) const;

  /// --------------------------------------------------------------------------

  /// Scores `n` candidate entities for a query. For kTail queries the anchor
  /// is the head and candidates are tails; for kHead queries the anchor is
  /// the tail and candidates are heads. Higher = more plausible. The base
  /// implementation builds one kernel query row and reduces with
  /// ScoreWithQuery; models without a kernel surface override it.
  virtual void ScoreCandidates(int32_t anchor, int32_t relation,
                               QueryDirection direction,
                               const int32_t* candidates, size_t n,
                               float* out) const;

  /// Scores query q against its *own* `candidates_per_query` candidates:
  /// out[q * k + j] is the score of candidates[q * k + j] for anchors[q]
  /// (k = candidates_per_query). All queries share (relation, direction).
  /// The per-anchor query representation is built once and reused across
  /// its k candidates, so the relation-grouped triple scorers (AUC, KP)
  /// score a positive and all its corruptions in one query construction —
  /// the fusion that matters for ConvE/TuckER, whose query construction
  /// dominates per-triple cost.
  virtual void ScorePairs(const int32_t* anchors, const int32_t* candidates,
                          size_t num_queries, size_t candidates_per_query,
                          int32_t relation, QueryDirection direction,
                          float* out) const;

  /// Gathers (and transposes) the pool's embeddings once into the
  /// CandidateBlock layout (plus the bias gather when the model has one).
  /// Without a kernel surface only the ids and the pool's sortedness are
  /// recorded. Thread-safe, like all scoring.
  virtual void PrepareCandidates(const int32_t* candidates, size_t n,
                                 CandidateBlock* block) const;

  /// Fused pool + truth scoring against a prepared block: builds the
  /// per-anchor query representation ONCE and emits both the pool score
  /// matrix (pool_scores[q * block.size() + c], bit-identical to
  /// ScoreCandidates) and each query's own-truth score (truth_scores[q],
  /// bit-identical to ScorePairs). Either output may be null to skip it
  /// (`truths` may be null iff truth_scores is). One query construction
  /// serves both outputs — it is the dominant per-query cost for ConvE
  /// (conv/FC trunk) and TuckER (core contraction). This is the evaluation
  /// hot path: the slot-major evaluators feed whole query blocks here. A
  /// block that was never prepared (a model without a kernel surface) is
  /// scored by per-query ScoreCandidates loops.
  virtual void ScoreBlock(const int32_t* anchors, const int32_t* truths,
                          size_t num_queries, int32_t relation,
                          QueryDirection direction,
                          const CandidateBlock& block, float* pool_scores,
                          float* truth_scores) const;

  /// Scores every entity for a query (out has num_entities() slots).
  void ScoreAll(int32_t anchor, int32_t relation, QueryDirection direction,
                float* out) const;

  /// Convenience single-triple score.
  float ScoreTriple(const Triple& t) const;

  /// Applies one gradient step: parameters move so as to *decrease*
  /// `dscore * score(h, r, t)` — i.e., pass dscore = dLoss/dScore.
  /// `direction` names the side the trainer treated as the candidate; models
  /// with direction-specific parameterizations (ConvE's reciprocal
  /// relations) use it, symmetric models ignore it.
  virtual void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                            QueryDirection direction, float dscore) = 0;

  /// Upper bound on useful hogwild parallelism for UpdateTriple. Embedding
  /// models update disjoint rows and scale to any thread count; models with
  /// *shared dense* parameters (ConvE's conv/FC stack, TuckER's core
  /// tensor) hit cache-line contention beyond a few threads, so they cap it.
  virtual size_t max_training_threads() const { return SIZE_MAX; }

  /// A named view of one parameter matrix, used by checkpointing.
  struct NamedParameter {
    const char* name;
    Matrix* matrix;
  };

  /// Appends views of every parameter matrix (stable names, stable order).
  /// Optimizer state is not included: checkpoints restore the model for
  /// inference/evaluation, not mid-flight training moments.
  virtual void CollectParameters(std::vector<NamedParameter>* out) = 0;

 protected:
  /// Fills the layout-independent CandidateBlock fields (ids + sortedness)
  /// and resets the model-specific ones; every PrepareCandidates override
  /// starts here before adding its gathered tile.
  static void FillCandidateIds(const int32_t* candidates, size_t n,
                               CandidateBlock* block);

  ModelType type_;
  int32_t num_entities_;
  int32_t num_relations_;
  ModelOptions options_;
};

/// Scores triples[i] as a tail query against its own tail (the ScoreTriple
/// convention), batched: triples are grouped by relation so each group goes
/// through one ScorePairs call instead of n virtual single-triple scores.
/// out[i] corresponds to triples[i].
void ScoreTriples(const KgeModel& model, const Triple* triples, size_t n,
                  float* out);

/// Fused positive/corruption triple scoring: positives[i] and its k
/// corruptions negatives[i * k + j] — which must share positives[i]'s head
/// and relation (only the tail is corrupted) — are scored in one
/// relation-grouped pass where each positive's query representation is
/// built once and dotted with its truth and all its corruptions.
/// pos_out[i] and neg_out[i * k + j] follow the input order and are
/// bit-identical to independent ScoreTriples calls over the two lists.
void ScoreTriplesWithNegatives(const KgeModel& model, const Triple* positives,
                               size_t n, const Triple* negatives, size_t k,
                               float* pos_out, float* neg_out);

/// Creates a model of the given type. Fails on invalid options (e.g., an odd
/// dimension for the complex-valued models).
Result<std::unique_ptr<KgeModel>> CreateModel(ModelType type,
                                              int32_t num_entities,
                                              int32_t num_relations,
                                              const ModelOptions& options);

}  // namespace kgeval

#endif  // KGEVAL_MODELS_KGE_MODEL_H_
