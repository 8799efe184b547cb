#include "ml/encoded_dataset.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/cancel.h"
#include "features/pair_feature_kernel.h"
#include "pxql/compiled_predicate.h"

namespace perfxplain {

namespace {

/// Dense ids for numbers in first-seen order, one per == class. A number
/// is keyed by its bit pattern with -0.0 folded into +0.0, so == classes
/// are keys (NaN never enters: a base cell is present only when both of
/// its values are ==). Linear probing at load <= 1/4, so nearly every key
/// sits in its home slot: callers try Find, which tests that slot only,
/// before Insert. std::unordered_map and a sort/unique/lower_bound pass
/// both build the matrix measurably slower (BENCH_micro.json).
class FirstSeenIds {
 public:
  static std::uint64_t Key(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return (bits << 1) == 0 ? 0 : bits;
  }

  void Clear() {
    slots_.assign(kInitialSlots, Slot{});
    shift_ = 64 - kInitialBits;
    values_.clear();
  }

  /// The id of `key` when its home slot holds it, else -1.
  std::int32_t Find(std::uint64_t key) const {
    const Slot& slot = slots_[SlotOf(key)];
    return slot.key == key ? slot.id : -1;
  }

  /// The id of `key`, assigning the next one when it is new.
  std::int32_t Insert(std::uint64_t key) {
    std::size_t at = SlotOf(key);
    for (; slots_[at].key != kEmpty; at = (at + 1) & (slots_.size() - 1)) {
      if (slots_[at].key == key) return slots_[at].id;
    }
    const auto id = static_cast<std::int32_t>(values_.size());
    slots_[at] = {key, id};
    double value = 0.0;
    std::memcpy(&value, &key, sizeof(value));
    values_.push_back(value);
    if (4 * values_.size() > slots_.size()) Grow();
    return id;
  }

  /// The numbers by id.
  const std::vector<double>& values() const { return values_; }

 private:
  static constexpr int kInitialBits = 6;
  static constexpr std::size_t kInitialSlots = std::size_t{1} << kInitialBits;
  /// An all-ones NaN pattern: never the key of a present value.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kEmpty;
    std::int32_t id = -1;
  };

  std::size_t SlotOf(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), Slot{});
    --shift_;
    for (std::size_t id = 0; id < values_.size(); ++id) {
      const std::uint64_t key = Key(values_[id]);
      std::size_t at = SlotOf(key);
      while (slots_[at].key != kEmpty) at = (at + 1) & (slots_.size() - 1);
      slots_[at] = {key, static_cast<std::int32_t>(id)};
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64 - kInitialBits;
  std::vector<double> values_;
};

/// Rewrites first-seen ids (negative = missing, kept) as ranks of the
/// ascending distinct values and returns those values. Sorts only the
/// distinct values; the cells are rewritten only when first-seen order was
/// not already ascending.
std::vector<double> RankFirstSeen(const std::vector<double>& first_seen,
                                  std::vector<std::int32_t>& ids) {
  if (first_seen.size() <= 1) return first_seen;
  std::vector<std::int32_t> order(first_seen.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::int32_t a, std::int32_t b) {
              return first_seen[a] < first_seen[b];
            });
  std::vector<double> distinct(order.size());
  std::vector<std::int32_t> rank_of(order.size());
  bool ascending = true;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    distinct[rank] = first_seen[order[rank]];
    rank_of[order[rank]] = static_cast<std::int32_t>(rank);
    ascending = ascending && order[rank] == static_cast<std::int32_t>(rank);
  }
  if (!ascending) {
    // Shifted by one, so missing cells (-1) map to -1 without a branch.
    std::vector<std::int32_t> shifted(1, -1);
    shifted.insert(shifted.end(), rank_of.begin(), rank_of.end());
    for (std::int32_t& id : ids) id = shifted[id + 1];
  }
  return distinct;
}

}  // namespace

EncodedDataset::EncodedDataset(const ColumnarLog& columns,
                               const PairSchema& schema,
                               const std::vector<PairRef>& pairs,
                               double sim_fraction)
    : schema_(&schema),
      interner_(&columns.interner()),
      pairs_(pairs) {
  const std::size_t m = pairs_.size();
  labels_.reserve(m);
  for (const PairRef& pair : pairs_) {
    labels_.push_back(pair.observed ? 1 : 0);
  }

  // One pass per raw feature fills all of its defined pair-feature columns
  // (isSame, compare and base of a numeric feature; isSame, diff and base
  // of a nominal one), loading each pair's inputs once. Undefined features
  // get no column and decode to missing.
  features_.resize(schema.size());
  FirstSeenIds ids;
  for (std::size_t raw = 0; raw < schema.raw_size(); ++raw) {
    ThrowIfInterrupted();
    FeatureColumn& base =
        features_[schema.IndexOf(PairFeatureKind::kBase, raw)];
    std::vector<std::int8_t> same(m);
    if (columns.is_numeric(raw)) {
      const NumericColumn& c = columns.numeric_column(raw);
      std::vector<std::int8_t> compare(m);
      std::vector<std::int32_t> ranks(m);
      ids.Clear();
      for (std::size_t r = 0; r < m; ++r) {
        const std::size_t i = pairs_[r].first;
        const std::size_t j = pairs_[r].second;
        const bool x_present = c.present.Test(i);
        const bool y_present = c.present.Test(j);
        const double x = c.values[i];
        const double y = c.values[j];
        same[r] = kernel::IsSameNumeric(x_present, x, y_present, y,
                                        sim_fraction);
        compare[r] = kernel::CompareNumeric(x_present, x, y_present, y,
                                            sim_fraction);
        const kernel::BaseNumericResult shared =
            kernel::BaseNumeric(x_present, x, y_present, y);
        std::int32_t id = -1;
        if (shared.present) {
          const std::uint64_t key = FirstSeenIds::Key(shared.value);
          id = ids.Find(key);
          if (id < 0) id = ids.Insert(key);
        }
        ranks[r] = id;
      }
      features_[schema.IndexOf(PairFeatureKind::kCompare, raw)].codes =
          std::move(compare);
      base.numeric = true;
      base.distinct = RankFirstSeen(ids.values(), ranks);
      base.codes = std::move(ranks);
    } else {
      const std::vector<std::int32_t>& c = columns.nominal_column(raw).codes;
      std::vector<std::int64_t> diff(m);
      std::vector<std::int32_t> base_codes(m);
      for (std::size_t r = 0; r < m; ++r) {
        const std::int32_t x = c[pairs_[r].first];
        const std::int32_t y = c[pairs_[r].second];
        same[r] = kernel::IsSameNominal(x, y);
        diff[r] = kernel::DiffPacked(x, y);
        base_codes[r] = kernel::BaseNominal(x, y);
      }
      features_[schema.IndexOf(PairFeatureKind::kDiff, raw)].codes =
          std::move(diff);
      base.codes = std::move(base_codes);
    }
    features_[schema.IndexOf(PairFeatureKind::kIsSame, raw)].codes =
        std::move(same);
  }
}

std::size_t EncodedDataset::MatrixBytes() const {
  std::size_t bytes = 0;
  for (const FeatureColumn& column : features_) {
    bytes += std::visit(
        [](const auto& codes) {
          return codes.capacity() * sizeof(codes[0]);
        },
        column.codes);
    bytes += column.distinct.capacity() * sizeof(double);
  }
  return bytes;
}

Value EncodedDataset::DecodeValue(std::size_t pair_index,
                                  std::size_t row) const {
  const FeatureColumn& column = features_[pair_index];
  if (!schema_->IsDefined(pair_index)) return Value::Missing();
  if (column.numeric) {
    const std::int32_t rank = NumericRanks(pair_index)[row];
    if (rank < 0) return Value::Missing();
    return Value::Number(column.distinct[rank]);
  }
  return DecodeCode(pair_index, Code(pair_index, row));
}

Value EncodedDataset::DecodeCode(std::size_t pair_index,
                                 std::int64_t code) const {
  if (code < 0) return Value::Missing();
  switch (schema_->KindOf(pair_index)) {
    case PairFeatureKind::kIsSame:
      return DecodeIsSame(static_cast<std::int8_t>(code));
    case PairFeatureKind::kCompare:
      return DecodeCompare(static_cast<std::int8_t>(code));
    case PairFeatureKind::kDiff:
      return DecodeDiff(code, *interner_);
    case PairFeatureKind::kBase:
      return DecodeBaseNominal(static_cast<std::int32_t>(code), *interner_);
  }
  return Value::Missing();
}

EncodedAtomTest::EncodedAtomTest(const EncodedDataset& data,
                                 const Atom& atom) {
  PX_CHECK(atom.bound()) << "encoded test needs a bound atom: "
                         << atom.feature();
  pair_index_ = atom.pair_index();
  numeric_ = data.IsNumericFeature(pair_index_);
  if (!data.schema().IsDefined(pair_index_)) {
    always_false_ = true;  // every cell is missing
    return;
  }
  op_ = atom.op();
  const Value& constant = atom.constant();
  const bool ordering = op_ != CompareOp::kEq && op_ != CompareOp::kNe;

  if (numeric_) {
    if (!constant.is_numeric()) {
      always_false_ = true;  // kind mismatch (or missing constant)
      return;
    }
    // The present values satisfying `op c` are one interval of the
    // ascending dictionary, [lower, upper) for = and its complement for !=.
    const std::vector<double>& distinct = data.NumericDistinct(pair_index_);
    const double c = constant.number();
    const auto rank = [&](auto it) {
      return static_cast<std::int32_t>(it - distinct.begin());
    };
    const std::int32_t size = rank(distinct.end());
    const std::int32_t lower =
        rank(std::lower_bound(distinct.begin(), distinct.end(), c));
    const std::int32_t upper =
        rank(std::upper_bound(distinct.begin(), distinct.end(), c));
    std::int32_t end = 0;
    if (std::isnan(c)) {
      // Nothing compares true with NaN; every present value is != it.
      if (op_ != CompareOp::kNe) {
        always_false_ = true;
        return;
      }
      end = size;
    } else {
      switch (op_) {
        case CompareOp::kEq:
          rank_lo_ = lower;
          end = upper;
          break;
        case CompareOp::kNe:
          rank_lo_ = lower;
          end = upper;
          rank_complement_ = true;
          break;
        case CompareOp::kLt:
          end = lower;
          break;
        case CompareOp::kLe:
          end = upper;
          break;
        case CompareOp::kGt:
          rank_lo_ = upper;
          end = size;
          break;
        case CompareOp::kGe:
          rank_lo_ = lower;
          end = size;
          break;
      }
    }
    rank_span_ = static_cast<std::uint32_t>(end - rank_lo_);
    return;
  }

  // Nominal-valued feature: ordering operators and non-nominal constants
  // can never match.
  if (ordering || !constant.is_nominal()) {
    always_false_ = true;
    return;
  }
  // The constant lowering is shared with the predicate compiler
  // (compiled_predicate.cc), so both fast paths resolve the categorical
  // domains identically.
  const StringInterner& interner = data.interner();
  switch (data.schema().KindOf(pair_index_)) {
    case PairFeatureKind::kIsSame: {
      const std::int8_t target = IsSameConstantTarget(constant);
      if (target >= 0) code_targets_.push_back(target);
      break;
    }
    case PairFeatureKind::kCompare: {
      const std::int8_t target = CompareConstantTarget(constant);
      if (target >= 0) code_targets_.push_back(target);
      break;
    }
    case PairFeatureKind::kDiff:
      for (const auto& [left, right] :
           DiffConstantTargets(constant, interner)) {
        code_targets_.push_back(kernel::DiffPacked(left, right));
      }
      break;
    case PairFeatureKind::kBase: {
      const std::int32_t code = interner.Lookup(constant.nominal());
      if (code != StringInterner::kNoCode) code_targets_.push_back(code);
      break;
    }
  }
  // Equality against a constant no cell can encode is statically false;
  // inequality of a same-kind constant matches every present cell.
  if (op_ == CompareOp::kEq && code_targets_.empty()) always_false_ = true;
}

bool EncodedAtomTest::MatchesCode(std::int64_t code) const {
  if (code < 0) return false;
  bool in_targets = false;
  for (std::int64_t target : code_targets_) {
    if (code == target) {
      in_targets = true;
      break;
    }
  }
  return op_ == CompareOp::kEq ? in_targets : !in_targets;
}

bool EncodedAtomTest::Matches(const EncodedDataset& data,
                              std::size_t row) const {
  if (always_false_) return false;
  if (numeric_) return MatchesRank(data.NumericRanks(pair_index_)[row]);
  return MatchesCode(data.Code(pair_index_, row));
}

namespace {

/// Packs pred(r) for rows [0, n) into a bitmap, one word at a time.
template <typename Pred>
PresenceBitmap PackRows(std::size_t n, Pred pred) {
  PresenceBitmap rows(n);
  std::vector<std::uint64_t>& words = rows.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = 0;
    const std::size_t end = std::min(n, w * 64 + 64);
    for (std::size_t r = w * 64; r < end; ++r) {
      bits |= std::uint64_t{pred(r)} << (r & 63);
    }
    words[w] = bits;
  }
  return rows;
}

}  // namespace

PresenceBitmap EncodedAtomTest::MatchingRows(
    const EncodedDataset& data) const {
  const std::size_t n = data.rows();
  if (always_false_) return PresenceBitmap(n);
  if (numeric_) {
    const std::vector<std::int32_t>& ranks = data.NumericRanks(pair_index_);
    return PackRows(n, [&](std::size_t r) { return MatchesRank(ranks[r]); });
  }
  return data.VisitCodes(pair_index_, [&](const auto& codes) {
    if (op_ == CompareOp::kEq && code_targets_.size() == 1) {
      const std::int64_t target = code_targets_[0];  // never negative
      return PackRows(n, [&](std::size_t r) { return codes[r] == target; });
    }
    return PackRows(n,
                    [&](std::size_t r) { return MatchesCode(codes[r]); });
  });
}

}  // namespace perfxplain
