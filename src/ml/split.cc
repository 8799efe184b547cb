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

/// One distinct present value of a numeric feature in the working set,
/// with the number of examples holding it and how many are positive.
struct ThresholdBin {
  double value;
  std::size_t total;
  std::size_t positive;
};

/// Adds `c` to the ascending distinct `thresholds` unless it is there.
void InsertThreshold(std::vector<double>& thresholds, double c) {
  const double canonical = CanonicalZero(c);
  const auto at =
      std::lower_bound(thresholds.begin(), thresholds.end(), canonical);
  if (at == thresholds.end() || *at != canonical) {
    thresholds.insert(at, canonical);
  }
}

/// The C4.5-style threshold scan shared by the Value and encoded searches:
/// one ascending pass produces the gains of all `f <= c` and `f >= c`
/// candidates. Callers collapse the working set's present values into
/// `bins` (ascending, distinct by ==) and pass the working set's totals
/// `n_total` / `n_positive`; everything downstream is this single
/// definition, so the paths cannot drift apart.
///
/// Thresholds are the midpoints between adjacent bins, the extreme bins'
/// values and the pair of interest's value (so `f <= poi` / `f >= poi` are
/// always candidates), visited ascending and distinct, with zeros as +0.0.
/// Midpoints of ascending values never decrease, so the list is built
/// without sorting; the one NaN midpoint (between -inf and +inf) is
/// dropped, as no value compares true with it and it would break the
/// list's order.
void ScanNumericThresholds(const PairSchema& schema, std::size_t pair_index,
                           const std::vector<ThresholdBin>& bins,
                           std::size_t n_total, std::size_t n_positive,
                           bool have_poi, double poi,
                           const SplitOptions& options,
                           std::optional<SplitCandidate>& best) {
  if (bins.empty()) return;
  std::size_t points_total = 0;
  std::size_t points_positive = 0;
  for (const ThresholdBin& bin : bins) {
    points_total += bin.total;
    points_positive += bin.positive;
  }

  std::vector<double> thresholds;
  thresholds.reserve(bins.size() + 2);
  for (std::size_t i = 0; i + 1 < bins.size(); ++i) {
    const double mid = (bins[i].value + bins[i + 1].value) / 2.0;
    if (std::isnan(mid)) continue;
    if (thresholds.empty() || thresholds.back() < mid) {
      thresholds.push_back(CanonicalZero(mid));
    }
  }
  InsertThreshold(thresholds, bins.front().value);
  InsertThreshold(thresholds, bins.back().value);
  if (have_poi && !std::isnan(poi)) InsertThreshold(thresholds, poi);

  // Prefix scan: for each threshold c, the in-set of `f <= c` is the bins
  // with value <= c; missing-valued examples are always out.
  std::size_t prefix_total = 0;
  std::size_t prefix_positive = 0;
  std::size_t cursor = 0;
  for (double c : thresholds) {
    while (cursor < bins.size() && bins[cursor].value <= c) {
      prefix_total += bins[cursor].total;
      prefix_positive += bins[cursor].positive;
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
    // f >= c; the in-set is every bin not below c. The prefix holds the
    // bins <= c, of which at most the last equals c.
    if (!options.constrain_to_pair || (have_poi && poi >= c)) {
      std::size_t lt_total = prefix_total;
      std::size_t lt_positive = prefix_positive;
      if (cursor > 0 && bins[cursor - 1].value == c) {
        lt_total -= bins[cursor - 1].total;
        lt_positive -= bins[cursor - 1].positive;
      }
      SplitCounts counts;
      counts.in_total = points_total - lt_total;
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

/// Example counts per rank of one numeric column, in rank order, which is
/// value order: its nonzero entries are already the scan's bins.
class RankHistogram {
 public:
  explicit RankHistogram(std::size_t ranks)
      : total_(ranks), positive_(ranks) {}

  void Add(std::int32_t rank, bool positive) {
    ++total_[rank];
    positive_[rank] += positive;
  }

  std::vector<ThresholdBin> Bins(const std::vector<double>& distinct) const {
    std::vector<ThresholdBin> bins;
    for (std::size_t rank = 0; rank < distinct.size(); ++rank) {
      if (total_[rank] != 0) {
        bins.push_back({distinct[rank], total_[rank], positive_[rank]});
      }
    }
    return bins;
  }

 private:
  std::vector<std::uint32_t> total_;
  std::vector<std::uint32_t> positive_;
};

/// Value-path bins for the shared threshold scan: sorts the present
/// values, then collapses each == run into one bin.
void SearchNumericThresholds(const PairSchema& schema,
                             const std::vector<TrainingExample>& examples,
                             std::size_t pair_index, const Value& poi_value,
                             const SplitOptions& options,
                             std::optional<SplitCandidate>& best) {
  struct Point {
    double value;
    bool positive;
  };
  std::vector<Point> points;
  points.reserve(examples.size());
  std::size_t n_positive = 0;
  for (const TrainingExample& example : examples) {
    const Value& v = example.features[pair_index];
    if (v.is_numeric()) points.push_back({v.number(), example.observed});
    if (example.observed) ++n_positive;
  }
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.value < b.value; });
  std::vector<ThresholdBin> bins;
  for (const Point& point : points) {
    if (bins.empty() || bins.back().value != point.value) {
      bins.push_back({point.value, 0, 0});
    }
    ++bins.back().total;
    if (point.positive) ++bins.back().positive;
  }
  const bool have_poi = poi_value.is_numeric();
  const double poi = have_poi ? poi_value.number() : 0.0;
  ScanNumericThresholds(schema, pair_index, bins, examples.size(),
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
    const std::vector<std::int32_t>& ranks = data.NumericRanks(pair_index);
    const std::vector<double>& distinct = data.NumericDistinct(pair_index);
    RankHistogram histogram(distinct.size());
    std::size_t n_positive = 0;
    for (std::uint32_t r : rows) {
      const bool label = labels[r] != 0;
      n_positive += label;
      if (ranks[r] >= 0) histogram.Add(ranks[r], label);
    }
    ScanNumericThresholds(schema, pair_index, histogram.Bins(distinct),
                          rows.size(), n_positive, /*have_poi=*/false, 0.0,
                          options, best);
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

  // Threshold bins: a rank histogram over the working set's present rows.
  const std::vector<std::int32_t>& ranks = data_->NumericRanks(f);
  const std::vector<double>& distinct = data_->NumericDistinct(f);
  RankHistogram histogram(distinct.size());
  const std::vector<std::uint64_t>& working = working_.words();
  const std::vector<std::uint64_t>& labels = labels_.words();
  for (std::size_t w = 0; w < working.size(); ++w) {
    for (std::uint64_t bits = working[w]; bits != 0; bits &= bits - 1) {
      const int bit = kernel::CountTrailingZeros(bits);
      const std::int32_t rank = ranks[w * 64 + bit];
      if (rank >= 0) histogram.Add(rank, (labels[w] >> bit) & 1);
    }
  }
  ScanNumericThresholds(schema, f, histogram.Bins(distinct), working_total_,
                        working_positive_, /*have_poi=*/true,
                        poi.value.number(), options, best);
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
  // A zero constant is +0.0 whichever zero the pair holds, as in the
  // encoded search's dictionary.
  const Value poi = poi_value.is_numeric()
                        ? Value::Number(CanonicalZero(poi_value.number()))
                        : poi_value;
  if (options.constrain_to_pair || poi.is_numeric()) {
    const SplitCounts counts =
        CountSplit(examples, [&](const TrainingExample& e) {
          return !e.features[pair_index].is_missing() &&
                 e.features[pair_index] == poi;
        });
    if (counts.in_total >= std::max<std::size_t>(1, options.min_support)) {
      Consider(schema, pair_index, CompareOp::kEq, poi, counts, best);
    }
  }
  SearchNumericThresholds(schema, examples, pair_index, poi, options, best);
  return best;
}

}  // namespace perfxplain
