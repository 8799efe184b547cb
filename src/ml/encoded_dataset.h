#ifndef PERFXPLAIN_ML_ENCODED_DATASET_H_
#define PERFXPLAIN_ML_ENCODED_DATASET_H_

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "common/value.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "pxql/ast.h"

namespace perfxplain {

/// A column-major, integer-coded training matrix: one column per defined
/// Table 1 pair feature, one row per sampled training pair. Built from a
/// ColumnarLog via the pair-feature kernels, so no Value is ever
/// materialized on the fast path.
///
/// Column representations:
///  - nominal-valued features (isSame, compare, diff, nominal base) hold
///    codes at their kernel width: int8 isSame/compare codes, int64 packed
///    (left,right) interner-code pairs for diff, int32 interner codes for
///    nominal base. Negative = missing. Equal codes <=> equal Values, except
///    that distinct diff codes can render to the same string.
///  - numeric base features are double arrays with a presence bitmap.
///  - undefined features (compare of a nominal raw feature, diff of a
///    numeric one) store nothing; every cell decodes to missing.
///
/// The ColumnarLog's interner must outlive the dataset (codes decode
/// through it).
class EncodedDataset {
 public:
  EncodedDataset(const ColumnarLog& columns, const PairSchema& schema,
                 const std::vector<PairRef>& pairs, double sim_fraction);

  std::size_t rows() const { return pairs_.size(); }
  const PairSchema& schema() const { return *schema_; }
  const StringInterner& interner() const { return *interner_; }
  const std::vector<PairRef>& pairs() const { return pairs_; }

  /// Per-row observed/expected labels (1 = observed).
  const std::vector<std::uint8_t>& labels() const { return labels_; }

  /// True when the pair feature holds doubles (base feature of a numeric
  /// raw feature); all other defined features are code columns.
  bool IsNumericFeature(std::size_t pair_index) const {
    return features_[pair_index].numeric;
  }
  /// Code of a defined code column's cell (negative = missing).
  std::int64_t Code(std::size_t pair_index, std::size_t row) const {
    return std::visit(
        [row](const auto& codes) { return std::int64_t{codes[row]}; },
        features_[pair_index].codes);
  }
  /// Calls fn(codes) with a defined code column's typed code vector, so a
  /// scan dispatches on the column's width once rather than per cell.
  template <typename Fn>
  decltype(auto) VisitCodes(std::size_t pair_index, Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), features_[pair_index].codes);
  }
  const std::vector<double>& NumericValues(std::size_t pair_index) const {
    return features_[pair_index].values;
  }
  const PresenceBitmap& NumericPresence(std::size_t pair_index) const {
    return features_[pair_index].present;
  }
  bool NumericPresent(std::size_t pair_index, std::size_t row) const {
    return features_[pair_index].present.Test(row);
  }

  /// Heap bytes of the matrix columns (labels and pair refs excluded).
  std::size_t MatrixBytes() const;

  /// Decodes a cell (or a code of the column) back to the exact Value the
  /// legacy path would compute — used to build Atom constants.
  Value DecodeValue(std::size_t pair_index, std::size_t row) const;
  Value DecodeCode(std::size_t pair_index, std::int64_t code) const;

 private:
  struct FeatureColumn {
    bool numeric = false;
    std::variant<std::vector<std::int8_t>, std::vector<std::int32_t>,
                 std::vector<std::int64_t>>
        codes;
    std::vector<double> values;
    PresenceBitmap present;
  };

  const PairSchema* schema_;
  const StringInterner* interner_;
  std::vector<PairRef> pairs_;
  std::vector<std::uint8_t> labels_;
  std::vector<FeatureColumn> features_;
};

/// An Atom lowered against an EncodedDataset: evaluates Atom::Matches over
/// the encoded columns without materializing Values. Exact for every
/// operator, including atoms whose constants the dictionary has never seen
/// (they match nothing for =, everything present for != of the same kind).
class EncodedAtomTest {
 public:
  EncodedAtomTest(const EncodedDataset& data, const Atom& atom);

  bool Matches(const EncodedDataset& data, std::size_t row) const;

  /// The rows of `data` the atom matches, as a bitmap (one column pass).
  PresenceBitmap MatchingRows(const EncodedDataset& data) const;

 private:
  bool MatchesCode(std::int64_t code) const;

  std::size_t pair_index_ = 0;
  bool numeric_ = false;
  CompareOp op_ = CompareOp::kEq;
  bool always_false_ = false;
  /// Codes equal to the atom constant (several for ambiguous diff strings).
  std::vector<std::int64_t> code_targets_;
  double num_const_ = 0.0;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_ENCODED_DATASET_H_
