#include "ml/encoded_dataset.h"

#include <algorithm>

#include "common/cancel.h"
#include "features/pair_feature_kernel.h"
#include "pxql/compiled_predicate.h"

namespace perfxplain {

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
  for (std::size_t raw = 0; raw < schema.raw_size(); ++raw) {
    ThrowIfInterrupted();
    FeatureColumn& base =
        features_[schema.IndexOf(PairFeatureKind::kBase, raw)];
    std::vector<std::int8_t> same(m);
    if (columns.is_numeric(raw)) {
      const NumericColumn& c = columns.numeric_column(raw);
      std::vector<std::int8_t> compare(m);
      base.numeric = true;
      base.values.assign(m, 0.0);
      base.present = PresenceBitmap(m);
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
        if (shared.present) {
          base.values[r] = shared.value;
          base.present.Set(r);
        }
      }
      features_[schema.IndexOf(PairFeatureKind::kCompare, raw)].codes =
          std::move(compare);
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
    bytes += column.values.capacity() * sizeof(double) +
             column.present.words().capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

Value EncodedDataset::DecodeValue(std::size_t pair_index,
                                  std::size_t row) const {
  const FeatureColumn& column = features_[pair_index];
  if (!schema_->IsDefined(pair_index)) return Value::Missing();
  if (column.numeric) {
    if (!column.present.Test(row)) return Value::Missing();
    return Value::Number(column.values[row]);
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
    num_const_ = constant.number();
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
  if (numeric_) {
    if (!data.NumericPresent(pair_index_, row)) return false;
    return CompareDoubles(op_, data.NumericValues(pair_index_)[row],
                          num_const_);
  }
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
    const std::vector<double>& values = data.NumericValues(pair_index_);
    PresenceBitmap rows = PackRows(n, [&](std::size_t r) {
      return CompareDoubles(op_, values[r], num_const_);
    });
    const std::vector<std::uint64_t>& present =
        data.NumericPresence(pair_index_).words();
    for (std::size_t w = 0; w < present.size(); ++w) {
      rows.words()[w] &= present[w];
    }
    return rows;
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
