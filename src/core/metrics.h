#ifndef PERFXPLAIN_CORE_METRICS_H_
#define PERFXPLAIN_CORE_METRICS_H_

#include "core/explanation.h"
#include "core/pair_enumeration.h"
#include "core/related_pair_index.h"
#include "features/pair_features.h"
#include "log/execution_log.h"
#include "pxql/query.h"

namespace perfxplain {

/// Quality of one explanation against one log (Definitions 4-6), together
/// with the raw pair counts behind the conditional probabilities.
///
/// Following §4.2 of the paper, all three conditional probabilities are
/// measured over the pairs *related* to the query — those satisfying
/// des AND (obs OR exp), Definition 7 — so pairs exhibiting some third
/// behavior do not enter the population:
///   Rel(E) = P(exp | des' AND des AND (obs OR exp))
///   Pr(E)  = P(obs | bec AND des' AND des AND (obs OR exp))
///   Gen(E) = P(bec | des' AND des AND (obs OR exp))
struct ExplanationMetrics {
  double relevance = 0.0;
  double precision = 0.0;
  double generality = 0.0;

  std::size_t pairs_despite = 0;       ///< related pairs satisfying des'
  std::size_t pairs_despite_exp = 0;   ///< ... and exp
  std::size_t pairs_because = 0;       ///< related pairs with des' AND bec
  std::size_t pairs_because_obs = 0;   ///< ... and obs
};

/// Measures relevance, precision and generality of `explanation` for
/// `query` over every ordered pair of `columns`' log. Predicates must
/// already be bound to `schema`. Probabilities conditioned on an empty set
/// are 0. `enumeration` sets the pair scan's threads; the metrics do not
/// depend on it.
ExplanationMetrics EvaluateExplanation(const ColumnarLog& columns,
                                       const PairSchema& schema,
                                       const Query& bound_query,
                                       const Explanation& explanation,
                                       const PairFeatureOptions& options,
                                       const EnumerationOptions& enumeration);

/// The same with the query and the explanation's two clauses already
/// compiled against `columns`.
ExplanationMetrics EvaluateExplanation(const ColumnarLog& columns,
                                       const CompiledQuery& query,
                                       const CompiledPredicate& despite,
                                       const CompiledPredicate& because,
                                       double sim_fraction,
                                       const EnumerationOptions& enumeration);

/// The same over the related pairs of `index`, the query's index over the
/// log the clauses were compiled against: runs only the des' and bec
/// programs, serially, classifying no pair.
ExplanationMetrics EvaluateExplanation(const RelatedPairIndex& index,
                                       const CompiledPredicate& despite,
                                       const CompiledPredicate& because,
                                       double sim_fraction);

/// The same over `log`, which is encoded first; the scan uses the default
/// EnumerationOptions.
ExplanationMetrics EvaluateExplanation(const ExecutionLog& log,
                                       const PairSchema& schema,
                                       const Query& bound_query,
                                       const Explanation& explanation,
                                       const PairFeatureOptions& options);

/// Relevance of a despite clause alone: P(exp | despite_ext AND des).
/// Used by the §6.4 experiment (Table 3 / Figure 4a).
double EvaluateDespiteRelevance(const ExecutionLog& log,
                                const PairSchema& schema,
                                const Query& bound_query,
                                const Predicate& despite_ext,
                                const PairFeatureOptions& options);

/// True when the explanation is applicable to the pair (Definition 3):
/// both clauses hold for (first, second). The records may be ad-hoc (from
/// different logs, or from none); evaluation compiles the clauses against a
/// two-row columnar log of just this pair, so no lazy PairFeatureView is
/// constructed — equivalence with the lazy path (missing values, NaN
/// included) is pinned by tests/core/metrics_test.cc.
bool IsApplicable(const Explanation& explanation, const PairSchema& schema,
                  const ExecutionRecord& first, const ExecutionRecord& second,
                  const PairFeatureOptions& options);

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_METRICS_H_
