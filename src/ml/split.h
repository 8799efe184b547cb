#ifndef PERFXPLAIN_ML_SPLIT_H_
#define PERFXPLAIN_ML_SPLIT_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "features/pair_features.h"
#include "features/pair_schema.h"
#include "ml/encoded_dataset.h"
#include "ml/info_gain.h"
#include "pxql/ast.h"

namespace perfxplain {

/// A candidate atomic predicate for one feature, with its information gain
/// over the current example set (line 5 of Algorithm 1) and the counts it
/// was scored on, which lines 6-7 read as its precision and generality.
struct SplitCandidate {
  Atom atom;
  double gain = 0.0;
  std::size_t in_total = 0;     ///< examples satisfying the atom
  std::size_t in_positive = 0;  ///< ... of which are labelled positive
};

/// Options controlling the per-feature predicate search.
struct SplitOptions {
  /// When true (PerfXplain's setting), every candidate atom must be
  /// satisfied by the pair of interest, so the final explanation is
  /// applicable (Definition 3). When false (plain decision-tree usage) the
  /// search is unconstrained.
  bool constrain_to_pair = true;

  /// A candidate predicate must be satisfied by at least this many
  /// examples. Guards against atoms that isolate (nearly) only the pair of
  /// interest, which look perfectly precise on the training sample but do
  /// not generalize.
  std::size_t min_support = 1;
};

/// Finds the predicate with maximum information gain for pair feature
/// `pair_index` over `examples` (maxInfoGainPredicate in Algorithm 1).
///
/// Nominal features admit only equality tests; under the pair-of-interest
/// constraint the only candidate constant is the pair's own value. Numeric
/// features admit equality plus <= / >= threshold tests at midpoints
/// between adjacent distinct observed values (C4.5-style); under the
/// constraint, <= thresholds must be at or above the pair's value and >=
/// thresholds at or below it. Examples whose value is missing never satisfy
/// a candidate. Numeric constants hold zero as +0.0, whichever zero the
/// pair of interest or the examples carry.
///
/// `poi_value` is the pair of interest's value for this feature. Returns
/// nullopt when the feature yields no usable candidate (e.g., the pair's
/// value is missing while constrained, or all example values are missing).
std::optional<SplitCandidate> BestPredicateForFeature(
    const PairSchema& schema, const std::vector<TrainingExample>& examples,
    std::size_t pair_index, const Value& poi_value,
    const SplitOptions& options);

/// Encoded unconstrained search (decision trees): the same search as
/// BestPredicateForFeature with constrain_to_pair = false, over an
/// integer-coded training matrix. `rows` is the current working set
/// (dataset row indices, in order) and `labels` the per-dataset-row
/// positive flags. Numeric threshold bins come from a rank histogram over
/// `rows`. Produces bit-identical candidates and gains to the Value path.
std::optional<SplitCandidate> BestPredicateForFeatureEncoded(
    const EncodedDataset& data, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint8_t>& labels, std::size_t pair_index,
    std::size_t min_support);

/// The constrained search of Algorithm 1 (lines 5-7 and 17) over an
/// EncodedDataset whose row 0 is the pair of interest, with the working set
/// and the labels held as row bitmaps.
///
/// Under Definition 3 the only candidate of a nominal feature is the pair
/// of interest's own value, so each nominal feature reduces to one bitmap
/// of the rows equal to it (diff features include every code that renders
/// the same string), built once. A candidate's counts are then
/// popcount(match & working) and popcount(match & working & label).
/// Numeric features count `= poi` the same way (the rows holding the pair's
/// rank) and fill their threshold bins from a rank histogram over the set
/// bits of working, so no step sorts. Bit-identical to
/// BestPredicateForFeature over the same examples.
class EncodedClauseSearch {
 public:
  /// `target_expected` flips the labels, so the search measures relevance
  /// (des' clauses) instead of precision.
  EncodedClauseSearch(const EncodedDataset& data, bool target_expected);

  /// Current working-set size.
  std::size_t size() const { return working_total_; }

  /// maxInfoGainPredicate for pair feature `f` over the working set, or
  /// nullopt when the feature is undefined, the pair of interest's value
  /// is missing, or no candidate reaches options.min_support. Always
  /// constrained to the pair of interest (options.constrain_to_pair is not
  /// read).
  std::optional<SplitCandidate> BestPredicate(
      std::size_t f, const SplitOptions& options) const;

  /// Keeps the working rows satisfying `chosen` and returns (kept,
  /// kept positive).
  std::pair<std::size_t, std::size_t> Filter(const SplitCandidate& chosen);

 private:
  SplitCounts CountsIn(const PresenceBitmap& match) const;

  const EncodedDataset* data_;
  PresenceBitmap labels_;
  PresenceBitmap working_;
  std::size_t working_total_ = 0;
  std::size_t working_positive_ = 0;
  /// Per feature: the pair of interest's value and the rows equal to it;
  /// `match` is empty when the feature has no candidate (undefined, or the
  /// value is missing).
  struct PoiFeature {
    Value value;
    PresenceBitmap match;
  };
  std::vector<PoiFeature> poi_;
};

/// Convenience: labels of `examples` as a bit vector (true = observed).
std::vector<bool> Labels(const std::vector<TrainingExample>& examples);

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_SPLIT_H_
