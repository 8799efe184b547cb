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

/// The representative of a number's == class: +0.0 for either zero, the
/// number itself otherwise. Rank dictionaries and threshold constants hold
/// zeros this way, so neither depends on which zero a row carried.
inline double CanonicalZero(double value) {
  return value == 0.0 ? 0.0 : value;
}

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
///  - numeric base features are order-preserving dictionaries: the
///    column's ascending distinct present values (deduplicated by ==, so
///    -0.0 and +0.0 share one entry whose value is +0.0) and an int32 rank
///    per row into them, -1 when the cell is missing. A cell decodes as
///    distinct[rank], and every comparison with a constant is a rank
///    interval test. The dictionary is built per dataset: a first-seen
///    hash over the present cells, then a sort of the distinct values only.
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

  /// True when the pair feature is a rank column (base feature of a numeric
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
  /// Per-row ranks of a numeric column into NumericDistinct (-1 = missing).
  const std::vector<std::int32_t>& NumericRanks(std::size_t pair_index) const {
    return std::get<std::vector<std::int32_t>>(features_[pair_index].codes);
  }
  /// Ascending distinct present values of a numeric column.
  const std::vector<double>& NumericDistinct(std::size_t pair_index) const {
    return features_[pair_index].distinct;
  }

  /// Heap bytes of the matrix columns, rank dictionaries included (labels
  /// and pair refs excluded).
  std::size_t MatrixBytes() const;

  /// Decodes a cell (or a code of the column) back to the exact Value the
  /// legacy path would compute — used to build Atom constants.
  Value DecodeValue(std::size_t pair_index, std::size_t row) const;
  Value DecodeCode(std::size_t pair_index, std::int64_t code) const;

 private:
  struct FeatureColumn {
    bool numeric = false;
    /// Codes, or a numeric column's ranks (int32).
    std::variant<std::vector<std::int8_t>, std::vector<std::int32_t>,
                 std::vector<std::int64_t>>
        codes;
    std::vector<double> distinct;  ///< numeric columns only
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
/// A numeric atom compares ranks: the present values satisfying `op c`
/// form one interval of the ascending dictionary (for example `f <= c`
/// holds exactly when rank < upper_bound(c)), and `f != c` is the
/// complement of the `f = c` interval among present rows; a NaN constant
/// matches nothing except under !=.
class EncodedAtomTest {
 public:
  EncodedAtomTest(const EncodedDataset& data, const Atom& atom);

  bool Matches(const EncodedDataset& data, std::size_t row) const;

  /// The rows of `data` the atom matches, as a bitmap (one column pass).
  PresenceBitmap MatchingRows(const EncodedDataset& data) const;

 private:
  bool MatchesCode(std::int64_t code) const;
  bool MatchesRank(std::int32_t rank) const {
    const bool in = static_cast<std::uint32_t>(rank - rank_lo_) < rank_span_;
    return rank_complement_ ? rank >= 0 && !in : in;
  }

  std::size_t pair_index_ = 0;
  bool numeric_ = false;
  CompareOp op_ = CompareOp::kEq;
  bool always_false_ = false;
  /// Codes equal to the atom constant (several for ambiguous diff strings).
  std::vector<std::int64_t> code_targets_;
  /// Numeric atoms: the matching ranks are [rank_lo_, rank_lo_ +
  /// rank_span_), or every other present rank when rank_complement_.
  std::int32_t rank_lo_ = 0;
  std::uint32_t rank_span_ = 0;
  bool rank_complement_ = false;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_ENCODED_DATASET_H_
