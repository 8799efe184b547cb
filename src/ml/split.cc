#include "ml/split.h"

#include <algorithm>
#include <cmath>

#include "features/pair_feature_kernel.h"

namespace perfxplain {

namespace {

/// Gain of an explicit membership test evaluated over all examples.
template <typename SatisfiesFn>
SplitCounts CountSplit(const std::vector<TrainingExample>& examples,
                       SatisfiesFn satisfies) {
  SplitCounts counts;
  for (const TrainingExample& example : examples) {
    if (satisfies(example)) {
      ++counts.in_total;
      if (example.observed) ++counts.in_positive;
    } else {
      ++counts.out_total;
      if (example.observed) ++counts.out_positive;
    }
  }
  return counts;
}

void Consider(const PairSchema& schema, std::size_t pair_index, CompareOp op,
              const Value& constant, const SplitCounts& counts,
              std::optional<SplitCandidate>& best) {
  const double gain = InformationGain(counts);
  if (!best.has_value() || gain > best->gain) {
    best = SplitCandidate{Atom::Bound(schema, pair_index, op, constant), gain,
                          counts.in_total, counts.in_positive};
  }
}

/// One (value, label) observation entering the threshold scan.
struct ThresholdPoint {
  double value;
  bool positive;
};

/// The C4.5-style threshold scan shared by the Value and encoded searches:
/// one ascending pass produces the gains of all `f <= c` and `f >= c`
/// candidates. Midpoints between adjacent distinct values are used as
/// thresholds, plus the pair of interest's own value so `f <= poi` /
/// `f >= poi` are always candidates. Callers extract `points` (the present
/// values) and the working set's totals `n_total` / `n_positive` from their
/// representation; everything downstream is this single definition, so the
/// paths cannot drift apart.
void ScanNumericThresholds(const PairSchema& schema, std::size_t pair_index,
                           std::vector<ThresholdPoint>& points,
                           std::size_t n_total, std::size_t n_positive,
                           bool have_poi, double poi,
                           const SplitOptions& options,
                           std::optional<SplitCandidate>& best) {
  using Point = ThresholdPoint;
  if (points.empty()) return;
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.value < b.value; });

  std::size_t points_positive = 0;
  for (const Point& p : points) {
    if (p.positive) ++points_positive;
  }

  // Candidate thresholds: midpoints between adjacent distinct values, the
  // extremes, and the pair of interest's value.
  std::vector<double> thresholds;
  thresholds.reserve(points.size() + 2);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    if (points[i].value != points[i + 1].value) {
      thresholds.push_back((points[i].value + points[i + 1].value) / 2.0);
    }
  }
  thresholds.push_back(points.front().value);
  thresholds.push_back(points.back().value);
  if (have_poi) thresholds.push_back(poi);
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  // Prefix scan: for each threshold c, in-set of `f <= c` is the prefix of
  // points with value <= c; missing-valued examples are always out.
  std::size_t prefix_total = 0;
  std::size_t prefix_positive = 0;
  std::size_t cursor = 0;
  for (double c : thresholds) {
    while (cursor < points.size() && points[cursor].value <= c) {
      ++prefix_total;
      if (points[cursor].positive) ++prefix_positive;
      ++cursor;
    }
    // f <= c; applicable iff poi <= c.
    if (!options.constrain_to_pair || (have_poi && poi <= c)) {
      SplitCounts counts;
      counts.in_total = prefix_total;
      counts.in_positive = prefix_positive;
      counts.out_total = n_total - prefix_total;
      counts.out_positive = n_positive - prefix_positive;
      if (counts.in_total >= options.min_support) {
        Consider(schema, pair_index, CompareOp::kLe, Value::Number(c),
                 counts, best);
      }
    }
    // f >= c; in-set is the suffix with value >= c. Because thresholds fall
    // between distinct values or on values, the suffix is everything not in
    // the strict prefix of values < c; recompute via the complement of the
    // prefix of values <= c when c is not an observed value. To stay exact
    // we count the suffix directly from the prefix of values < c.
    if (!options.constrain_to_pair || (have_poi && poi >= c)) {
      // Count of points with value < c: step an independent scan would cost
      // O(n) per threshold; instead note that points with value < c equals
      // prefix_total minus points exactly equal to c that were consumed.
      std::size_t eq_total = 0;
      std::size_t eq_positive = 0;
      for (std::size_t k = cursor; k-- > 0;) {
        if (points[k].value != c) break;
        ++eq_total;
        if (points[k].positive) ++eq_positive;
      }
      const std::size_t lt_total = prefix_total - eq_total;
      const std::size_t lt_positive = prefix_positive - eq_positive;
      SplitCounts counts;
      counts.in_total = points.size() - lt_total;
      counts.in_positive = points_positive - lt_positive;
      counts.out_total = n_total - counts.in_total;
      counts.out_positive = n_positive - counts.in_positive;
      if (counts.in_total >= options.min_support) {
        Consider(schema, pair_index, CompareOp::kGe, Value::Number(c),
                 counts, best);
      }
    }
  }
}

/// Value-path point extraction for the shared threshold scan.
void SearchNumericThresholds(const PairSchema& schema,
                             const std::vector<TrainingExample>& examples,
                             std::size_t pair_index, const Value& poi_value,
                             const SplitOptions& options,
                             std::optional<SplitCandidate>& best) {
  std::vector<ThresholdPoint> points;
  points.reserve(examples.size());
  std::size_t n_positive = 0;
  for (const TrainingExample& example : examples) {
    const Value& v = example.features[pair_index];
    if (v.is_numeric()) points.push_back({v.number(), example.observed});
    if (example.observed) ++n_positive;
  }
  const bool have_poi = poi_value.is_numeric();
  const double poi = have_poi ? poi_value.number() : 0.0;
  ScanNumericThresholds(schema, pair_index, points, examples.size(),
                        n_positive, have_poi, poi, options, best);
}

}  // namespace

std::optional<SplitCandidate> BestPredicateForFeatureEncoded(
    const EncodedDataset& data, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint8_t>& labels, std::size_t pair_index,
    std::size_t min_support) {
  const PairSchema& schema = data.schema();
  if (rows.empty()) return std::nullopt;
  if (!schema.IsDefined(pair_index)) return std::nullopt;

  std::optional<SplitCandidate> best;
  SplitOptions options;
  options.constrain_to_pair = false;
  options.min_support = min_support;

  if (data.IsNumericFeature(pair_index)) {
    std::vector<ThresholdPoint> points;
    points.reserve(rows.size());
    std::size_t n_positive = 0;
    const std::vector<double>& values = data.NumericValues(pair_index);
    for (std::uint32_t r : rows) {
      if (data.NumericPresent(pair_index, r)) {
        points.push_back({values[r], labels[r] != 0});
      }
      if (labels[r] != 0) ++n_positive;
    }
    ScanNumericThresholds(schema, pair_index, points, rows.size(),
                          n_positive, /*have_poi=*/false, 0.0, options, best);
    return best;
  }

  // Equality tests only. Distinct codes are grouped by their decoded
  // Value: two packed diff codes can render to the same "(a,b,c)" string
  // when a nominal value contains a comma, and the Value path counts such
  // a candidate across all of its encodings.
  struct Candidate {
    Value value;
    std::vector<std::int64_t> codes;
  };
  std::vector<std::int64_t> distinct;
  for (std::uint32_t r : rows) {
    const std::int64_t code = data.Code(pair_index, r);
    if (code >= 0) distinct.push_back(code);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<Candidate> groups;
  for (std::int64_t code : distinct) {
    Value value = data.DecodeCode(pair_index, code);
    bool merged = false;
    for (Candidate& group : groups) {
      if (group.value == value) {
        group.codes.push_back(code);
        merged = true;
        break;
      }
    }
    if (!merged) groups.push_back({std::move(value), {code}});
  }
  std::sort(groups.begin(), groups.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.value < b.value;
            });

  for (const Candidate& group : groups) {
    SplitCounts counts;
    for (std::uint32_t r : rows) {
      const std::int64_t code = data.Code(pair_index, r);
      if (std::find(group.codes.begin(), group.codes.end(), code) !=
          group.codes.end()) {
        ++counts.in_total;
        if (labels[r] != 0) ++counts.in_positive;
      } else {
        ++counts.out_total;
        if (labels[r] != 0) ++counts.out_positive;
      }
    }
    if (counts.in_total < std::max<std::size_t>(1, min_support)) continue;
    Consider(schema, pair_index, CompareOp::kEq, group.value, counts, best);
  }
  return best;
}

EncodedClauseSearch::EncodedClauseSearch(const EncodedDataset& data,
                                         bool target_expected)
    : data_(&data),
      labels_(data.rows()),
      working_(data.rows()),
      working_total_(data.rows()),
      poi_(data.schema().size()) {
  for (std::size_t r = 0; r < data.rows(); ++r) {
    working_.Set(r);
    if ((data.labels()[r] != 0) != target_expected) {
      labels_.Set(r);
      ++working_positive_;
    }
  }
  if (data.rows() == 0) return;
  const PairSchema& schema = data.schema();
  for (std::size_t f = 0; f < schema.size(); ++f) {
    PoiFeature& poi = poi_[f];
    poi.value = data.DecodeValue(f, /*row=*/0);
    if (poi.value.is_missing()) continue;  // undefined, or no candidate
    poi.match = EncodedAtomTest(data, Atom::Bound(schema, f, CompareOp::kEq,
                                                  poi.value))
                    .MatchingRows(data);
  }
}

SplitCounts EncodedClauseSearch::CountsIn(const PresenceBitmap& match) const {
  SplitCounts counts;
  const std::vector<std::uint64_t>& in = match.words();
  const std::vector<std::uint64_t>& working = working_.words();
  const std::vector<std::uint64_t>& labels = labels_.words();
  for (std::size_t w = 0; w < in.size(); ++w) {
    const std::uint64_t bits = in[w] & working[w];
    counts.in_total += kernel::PopCount(bits);
    counts.in_positive += kernel::PopCount(bits & labels[w]);
  }
  counts.out_total = working_total_ - counts.in_total;
  counts.out_positive = working_positive_ - counts.in_positive;
  return counts;
}

std::optional<SplitCandidate> EncodedClauseSearch::BestPredicate(
    std::size_t f, const SplitOptions& options) const {
  const PoiFeature& poi = poi_[f];
  if (poi.match.words().empty()) return std::nullopt;
  const PairSchema& schema = data_->schema();
  std::optional<SplitCandidate> best;
  const SplitCounts counts = CountsIn(poi.match);
  if (counts.in_total >= std::max<std::size_t>(1, options.min_support)) {
    Consider(schema, f, CompareOp::kEq, poi.value, counts, best);
  }
  if (!data_->IsNumericFeature(f)) return best;

  // Threshold points: the present values of the working set, in row order.
  std::vector<ThresholdPoint> points;
  points.reserve(working_total_);
  const std::vector<double>& values = data_->NumericValues(f);
  const std::vector<std::uint64_t>& present =
      data_->NumericPresence(f).words();
  const std::vector<std::uint64_t>& working = working_.words();
  for (std::size_t w = 0; w < present.size(); ++w) {
    for (std::uint64_t bits = present[w] & working[w]; bits != 0;
         bits &= bits - 1) {
      const std::size_t r = w * 64 + kernel::CountTrailingZeros(bits);
      points.push_back({values[r], labels_.Test(r)});
    }
  }
  ScanNumericThresholds(schema, f, points, working_total_, working_positive_,
                        /*have_poi=*/true, poi.value.number(), options, best);
  return best;
}

std::pair<std::size_t, std::size_t> EncodedClauseSearch::Filter(
    const SplitCandidate& chosen) {
  const PresenceBitmap keep =
      EncodedAtomTest(*data_, chosen.atom).MatchingRows(*data_);
  std::vector<std::uint64_t>& working = working_.words();
  working_total_ = 0;
  working_positive_ = 0;
  for (std::size_t w = 0; w < working.size(); ++w) {
    working[w] &= keep.words()[w];
    working_total_ += kernel::PopCount(working[w]);
    working_positive_ += kernel::PopCount(working[w] & labels_.words()[w]);
  }
  return {working_total_, working_positive_};
}

std::vector<bool> Labels(const std::vector<TrainingExample>& examples) {
  std::vector<bool> labels;
  labels.reserve(examples.size());
  for (const auto& example : examples) labels.push_back(example.observed);
  return labels;
}

std::optional<SplitCandidate> BestPredicateForFeature(
    const PairSchema& schema, const std::vector<TrainingExample>& examples,
    std::size_t pair_index, const Value& poi_value,
    const SplitOptions& options) {
  if (examples.empty()) return std::nullopt;
  if (!schema.IsDefined(pair_index)) return std::nullopt;
  if (options.constrain_to_pair && poi_value.is_missing()) return std::nullopt;

  std::optional<SplitCandidate> best;
  const ValueKind kind = schema.ValueKindOf(pair_index);

  if (kind == ValueKind::kNominal) {
    // Equality tests only. Constrained: the sole candidate constant is the
    // pair of interest's own value. Unconstrained: every observed value.
    std::vector<Value> candidates;
    if (options.constrain_to_pair) {
      candidates.push_back(poi_value);
    } else {
      for (const TrainingExample& example : examples) {
        const Value& v = example.features[pair_index];
        if (!v.is_missing()) candidates.push_back(v);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    }
    for (const Value& c : candidates) {
      const SplitCounts counts =
          CountSplit(examples, [&](const TrainingExample& e) {
            return !e.features[pair_index].is_missing() &&
                   e.features[pair_index] == c;
          });
      if (counts.in_total < std::max<std::size_t>(1, options.min_support)) {
        continue;  // vacuous or unsupported predicate
      }
      Consider(schema, pair_index, CompareOp::kEq, c, counts, best);
    }
    return best;
  }

  // Numeric feature: equality on the pair's value plus threshold tests.
  if (options.constrain_to_pair || poi_value.is_numeric()) {
    const SplitCounts counts =
        CountSplit(examples, [&](const TrainingExample& e) {
          return !e.features[pair_index].is_missing() &&
                 e.features[pair_index] == poi_value;
        });
    if (counts.in_total >= std::max<std::size_t>(1, options.min_support)) {
      Consider(schema, pair_index, CompareOp::kEq, poi_value, counts, best);
    }
  }
  SearchNumericThresholds(schema, examples, pair_index, poi_value, options,
                          best);
  return best;
}

}  // namespace perfxplain
