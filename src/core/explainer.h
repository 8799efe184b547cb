#ifndef PERFXPLAIN_CORE_EXPLAINER_H_
#define PERFXPLAIN_CORE_EXPLAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/explanation.h"
#include "core/pair_enumeration.h"
#include "core/related_pair_index.h"
#include "features/pair_features.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "log/execution_log.h"
#include "ml/encoded_dataset.h"
#include "ml/sampler.h"
#include "pxql/compiled_predicate.h"
#include "pxql/query.h"

namespace perfxplain {

/// Tunables of the PerfXplain explanation generator (Algorithm 1).
struct ExplainerOptions {
  /// Number of atomic predicates in the because clause (w in Algorithm 1).
  std::size_t width = 3;

  /// Blend between the normalized precision and generality scores
  /// (line 13; the paper uses 0.8, favoring precision).
  double precision_weight = 0.8;

  /// Balanced-sampling parameters (§4.3; sample size 2000 in the paper).
  SamplerOptions sampler;

  /// Pair-feature computation (10% similarity threshold).
  PairFeatureOptions pair;

  /// Which pair features the explanation may use (§6.8). Level 3 = all.
  FeatureLevel level = FeatureLevel::kLevel3;

  /// Width of machine-generated despite clauses (§6.4 uses 3).
  std::size_t despite_width = 3;

  /// ExplainWithAutoDespite stops extending the despite clause once its
  /// relevance over the training sample reaches this threshold (§4.2:
  /// "an easy modification is to set a relevance threshold r").
  double despite_relevance_threshold = 0.95;

  /// When non-zero, caps how many sampled training pairs any single
  /// execution may participate in — the diversity-biased sampling the
  /// paper suggests as future work (§4.3). 0 disables the cap.
  std::size_t max_pairs_per_record = 0;

  /// Percentile-rank normalization of the precision/generality scores
  /// before blending (lines 11-12 of Algorithm 1). Disabling reverts to
  /// the paper's earlier implementation, which the authors report let
  /// precision drown out generality. Ablated in bench_ablation.
  bool normalize_scores = true;

  /// Balanced sampling (§4.3). Disabling samples related pairs uniformly,
  /// which on skewed logs lets the majority label dominate training.
  /// Ablated in bench_ablation.
  bool balanced_sampling = true;

  /// Seed of the per-call sampling Rng; explanations are deterministic
  /// given (log, query, options).
  std::uint64_t seed = 17;

  /// Worker threads for the columnar pair enumeration (0 = process
  /// default). Thread count never changes any result — per-thread partial
  /// results merge in row order and sampling draws replay serially.
  int threads = 0;
};

/// Generates PerfXplain explanations from a log of past executions.
///
/// The despite and because clauses are built symmetrically (§4.2): a greedy
/// loop picks, at each step, the max-information-gain predicate per feature
/// (restricted to predicates the pair of interest satisfies, so the result
/// is applicable per Definition 3), scores the per-feature winners by a
/// weighted blend of percentile-normalized precision (bec) or relevance
/// (des') and generality, appends the best atom, and recurses on the
/// examples that satisfy the clause so far. Features mentioned by the
/// observed/expected clauses (the runtime metric itself) are excluded from
/// explanations.
class Explainer {
 public:
  /// `log` must outlive the explainer. When `columns` is non-null it must
  /// be the columnar copy of `log` (and outlive this object too); the
  /// explainer then shares it instead of building its own — the Engine
  /// passes its snapshot's so every technique scans one replica. When
  /// `related_pairs` is non-null it must index those same columns; the
  /// *Prepared entry points then sample the prepared query's own shape
  /// from it instead of scanning (the Engine passes its snapshot's).
  Explainer(const ExecutionLog* log, ExplainerOptions options,
            const ColumnarLog* columns = nullptr,
            const RelatedPairIndexStore* related_pairs = nullptr);

  const PairSchema& pair_schema() const { return schema_; }
  const ExplainerOptions& options() const { return options_; }

  /// Resolves the pair of interest from the query's ids, checks Definition 1
  /// (des and obs hold for the pair, exp does not) and returns the bound
  /// query. Exposed for callers that drive the pieces separately.
  Result<Query> PrepareQuery(const Query& query) const;

  /// Default mode: generates only the bec clause (§4.2: "by default,
  /// PerfXplain generates only the bec clause").
  Result<Explanation> Explain(const Query& query) const;

  /// Generates a des' clause of width `width` for the query (the user asks
  /// for a despite clause explicitly, §6.4).
  Result<Predicate> GenerateDespite(const Query& query,
                                    std::size_t width) const;

  /// Generates a des' clause (stopping early at the relevance threshold),
  /// folds it into the query, then generates the bec clause in its context.
  Result<Explanation> ExplainWithAutoDespite(const Query& query) const;

  /// The entry points behind Engine::Explain: the same three pipelines
  /// starting from a query already prepared (bound, validated, Definition 1
  /// checked — see PrepareQuery) with its pair of interest resolved, under
  /// explicit per-request options. The parse/bind/resolve work is paid once
  /// per PreparedQuery instead of once per call. `options` may differ from
  /// the constructor options only in width / despite_width / seed /
  /// threads: anything that changes pair semantics (sim_fraction, level,
  /// sampling sizes) would desynchronize the check PrepareQuery already
  /// performed. With a related-pair index store, the prepared query's own
  /// shape is sampled from its index (built on first use); the extended
  /// query of auto-despite is always sampled by a scan. Thread-safe: these
  /// methods touch only immutable state, the internally synchronized index
  /// store and call-local Rngs.
  Result<Explanation> ExplainPrepared(const Query& bound,
                                      std::size_t poi_first,
                                      std::size_t poi_second,
                                      const ExplainerOptions& options) const;

  /// The per-request half of ExplainPrepared, split at the encoded
  /// training matrix: the serial sampling replay over the shape's
  /// related-pair index, the diversity cap and the encoding. The matrix
  /// depends only on (index, pair of interest, seed, sampling options,
  /// sim_fraction) — NOT on the clause width — so Engine::ExplainBatch
  /// builds it once per (shape, seed, poi) sub-group and feeds it to
  /// ExplainPreparedWithExamples per request. `index` must be the query
  /// shape's index over this explainer's columns under this engine's
  /// sim_fraction.
  Result<EncodedDataset> BuildEncodedExamplesFromIndex(
      const RelatedPairIndex& index, std::size_t poi_first,
      std::size_t poi_second, const ExplainerOptions& options) const;

  /// The clause-generation tail of ExplainPrepared over an already-built
  /// encoded training matrix. `examples` must come from
  /// BuildEncodedExamplesFromIndex for the same bound query (any width);
  /// the two together are bitwise identical to ExplainPrepared.
  Result<Explanation> ExplainPreparedWithExamples(
      const Query& bound, const EncodedDataset& examples,
      const ExplainerOptions& options) const;
  Result<Predicate> GenerateDespitePrepared(
      const Query& bound, std::size_t poi_first, std::size_t poi_second,
      std::size_t width, const ExplainerOptions& options) const;
  Result<Explanation> ExplainWithAutoDespitePrepared(
      const Query& bound, std::size_t poi_first, std::size_t poi_second,
      const ExplainerOptions& options) const;

  /// Lower-level entry point used by the experiments: generates one clause
  /// from already-materialized training examples. The first example must be
  /// the pair of interest. `target_expected` selects des' mode (optimize
  /// relevance) versus bec mode (optimize precision). Atoms appearing
  /// verbatim in `redundant_atoms` (the query's despite clause, which every
  /// related pair satisfies) are never proposed.
  std::vector<ExplanationAtom> GenerateClause(
      std::vector<TrainingExample> examples, std::size_t width,
      bool target_expected, const std::vector<std::size_t>& excluded_raw,
      const std::vector<Atom>& redundant_atoms = {}) const;

  /// Raw-feature indexes mentioned by the query's observed/expected clauses
  /// (excluded from candidate explanation features).
  std::vector<std::size_t> ExcludedRawFeatures(const Query& bound_query)
      const;

  /// Builds (and balanced-samples) the training examples for `bound_query`
  /// with the pair of interest first. Exposed for experiments.
  Result<std::vector<TrainingExample>> BuildExamples(
      const Query& bound_query, std::size_t poi_first,
      std::size_t poi_second) const;

  /// Columnar fast path of BuildExamples: the same sampled pairs (same Rng
  /// draw sequence) encoded into an integer training matrix, never
  /// materializing a Value. Explain/GenerateDespite/ExplainWithAutoDespite
  /// run on this; the Value-based entry points above remain as a
  /// compatibility layer.
  Result<EncodedDataset> BuildEncodedExamples(const Query& bound_query,
                                              std::size_t poi_first,
                                              std::size_t poi_second) const;

  /// GenerateClause over the encoded training matrix — the engine behind
  /// Explain. Produces the same clause as the Value-based overload for the
  /// same underlying examples.
  std::vector<ExplanationAtom> GenerateClause(
      const EncodedDataset& examples, std::size_t width, bool target_expected,
      const std::vector<std::size_t>& excluded_raw,
      const std::vector<Atom>& redundant_atoms = {}) const;

  /// The dictionary-encoded copy of the log shared by all queries.
  const ColumnarLog& columnar() const { return *columnar_; }

 private:
  static Predicate ClauseToPredicate(
      const std::vector<ExplanationAtom>& trace);

  /// BuildEncodedExamples under explicit options (seed / threads / sampling
  /// come from `options`, not the constructor's). `indexed` lets the
  /// sample come from the related-pair index store, when there is one and
  /// the shape fits it; otherwise SampleRelatedPairs scans the pairs.
  Result<EncodedDataset> BuildEncodedExamplesWith(
      const Query& bound_query, std::size_t poi_first, std::size_t poi_second,
      const ExplainerOptions& options, bool indexed) const;

  /// The diversity cap and encoding shared by every sampling route.
  EncodedDataset EncodeSample(std::vector<PairRef> pairs,
                              const ExplainerOptions& options) const;

  const ExecutionLog* log_;
  ExplainerOptions options_;
  PairSchema schema_;
  std::unique_ptr<ColumnarLog> owned_columnar_;
  const ColumnarLog* columnar_;
  const RelatedPairIndexStore* related_pairs_;
};

/// Definition 1 check on the compiled programs: des and obs must hold for
/// the pair of interest, exp must not. Shared by Explainer::PrepareQuery
/// and Engine::Prepare so both report identical statuses.
Status CheckDefinition1(const CompiledQuery& compiled, std::size_t first,
                        std::size_t second, double sim_fraction);

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_EXPLAINER_H_
