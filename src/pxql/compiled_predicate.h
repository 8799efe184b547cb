#ifndef PERFXPLAIN_PXQL_COMPILED_PREDICATE_H_
#define PERFXPLAIN_PXQL_COMPILED_PREDICATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "features/pair_schema.h"
#include "log/columnar.h"
#include "pxql/ast.h"
#include "pxql/query.h"

namespace perfxplain {

/// Opcode of one lowered PXQL atom. Atoms over pair features reduce, per
/// Table 1 feature kind and constant type, to integer-code or double
/// comparisons directly against the raw columns — no Value is ever built.
enum class PredOp : std::uint8_t {
  kAlwaysFalse,  ///< statically unsatisfiable (kind mismatch, unknown level,
                 ///< constant absent from the dictionary, ...)
  kIsSameEq,     ///< isSame code == code_target
  kIsSameNe,     ///< isSame code present && != code_target
  kCompareEq,    ///< compare code == code_target
  kCompareNe,    ///< compare code present && != code_target
  kDiffEq,       ///< diff packed pair in diff_targets
  kDiffNe,       ///< diff present && packed pair not in diff_targets
  kBaseNomEq,    ///< base nominal code == nom_target
  kBaseNomNe,    ///< base nominal code present && != nom_target
  kBaseNumCmp,   ///< base numeric present && value <cmp> num_const
};

/// One flat instruction of a compiled predicate program. The column
/// pointers are resolved at compile time (a program is only valid for the
/// ColumnarLog it was compiled against), so evaluation does zero lookups.
struct PredInstr {
  PredOp op = PredOp::kAlwaysFalse;
  CompareOp cmp = CompareOp::kEq;  ///< for kBaseNumCmp
  bool numeric_raw = false;        ///< isSame kernel selector
  const NumericColumn* num_col = nullptr;
  const NominalColumn* nom_col = nullptr;
  std::int8_t code_target = -1;    ///< isSame/compare constant code
  std::int32_t nom_target = StringInterner::kNoCode;
  double num_const = 0.0;
  /// Interned (left, right) pairs whose diff string equals the constant.
  std::vector<std::pair<std::int32_t, std::int32_t>> diff_targets;
};

/// An ascending run of row indexes inside a PairSelection, iterable with
/// a range-for; valid while the selection lives.
struct RowRange {
  const std::uint32_t* first = nullptr;
  const std::uint32_t* last = nullptr;
  const std::uint32_t* begin() const { return first; }
  const std::uint32_t* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
};

/// Column-level selection derived from one compiled predicate: a sound
/// pre-filter for the ordered-pair scans. When `constrained` is true,
/// every ordered pair (i, j) that can satisfy the predicate has i in
/// `first_rows`, j in `second_rows` (both ascending) and j among
/// partners(i), so a scan may visit, for each first row in order, only its
/// partners — pruned pairs contribute to no tally and the visited pairs
/// keep their row-major order, so results are bitwise identical to the
/// full scan. When false, callers scan all pairs. With equi-join keys
/// (nominal isSame = T atoms) a row's partners are the second rows of its
/// composite-key group; without, all of `second_rows`.
struct PairSelection {
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;

  bool constrained = false;
  std::vector<std::uint32_t> first_rows;
  std::vector<std::uint32_t> second_rows;
  /// The partition, empty when the predicate has no equi-join key: each
  /// row's group (kNoGroup when a key code is missing), and group g's
  /// second rows, ascending, at group_rows[group_begin[g], group_begin[g+1]).
  std::vector<std::uint32_t> group_of;
  std::vector<std::uint32_t> group_begin;
  std::vector<std::uint32_t> group_rows;

  /// The ascending candidate partners of first row `i`.
  RowRange partners(std::size_t i) const {
    if (group_of.empty()) {
      return {second_rows.data(), second_rows.data() + second_rows.size()};
    }
    const std::uint32_t g = group_of[i];
    if (g == kNoGroup) return {};
    return {group_rows.data() + group_begin[g],
            group_rows.data() + group_begin[g + 1]};
  }
};

/// Single-column selection scans over dictionary codes / numeric columns —
/// the ScanColumn fast path behind CompiledPredicate::DeriveSelection.
/// Each overwrites `out` with the ascending rows passing the test, using a
/// branchless append (out[count] = r; count += test) so the loop
/// auto-vectorizes. Exposed for tests and reuse.
void ScanColumnEqCode(const std::vector<std::int32_t>& codes,
                      std::int32_t target, std::vector<std::uint32_t>& out);
void ScanColumnPresentNeCode(const std::vector<std::int32_t>& codes,
                             std::int32_t excluded,
                             std::vector<std::uint32_t>& out);
void ScanColumnCodeIn(const std::vector<std::int32_t>& codes,
                      const std::vector<std::int32_t>& targets,
                      std::vector<std::uint32_t>& out);
void ScanColumnNumCmp(const NumericColumn& column, std::size_t rows,
                      CompareOp cmp, double constant,
                      std::vector<std::uint32_t>& out);

/// A conjunction of PXQL atoms lowered to a flat opcode program over the
/// columns of one ColumnarLog. Programs are only valid for the log (and the
/// interner) they were compiled against.
///
/// Semantics are pinned to the lazy path: for every ordered pair (i, j) of
/// the compiled-against log, Eval(i, j, f) == predicate.Eval(view) for the
/// PairFeatureView of (row i, row j) — including missing-value atoms
/// (missing satisfies no atom, not even Ne) and NaN arithmetic. An atom no
/// pair can ever satisfy (kind mismatch, ordering operator on a nominal
/// value, constant absent from the dictionary) makes the whole program
/// always_false() at compile time, so scans skip it without visiting any
/// pair.
///
/// Thread safety: immutable after Compile; Eval is const and lock-free, so
/// one program may be evaluated from any number of row-stripe workers
/// concurrently.
class CompiledPredicate {
 public:
  /// Lowers `predicate` (all atoms bound to `schema`) against `columns`.
  static CompiledPredicate Compile(const Predicate& predicate,
                                   const PairSchema& schema,
                                   const ColumnarLog& columns);

  /// True when no pair can satisfy the predicate, decided at compile time.
  bool always_false() const { return always_false_; }
  std::size_t width() const { return instrs_.size(); }

  /// The ColumnarLog the program was compiled against. Row indexes passed
  /// to Eval must refer to this log; the instructions hold raw pointers
  /// into its columns.
  const ColumnarLog* source() const { return source_; }

  /// Evaluates the program for the ordered pair of rows (i, j) of the
  /// compiled-against log. Exactly equivalent to Predicate::Eval over a
  /// lazy PairFeatureView, without materializing any Value.
  bool Eval(std::size_t i, std::size_t j, double sim_fraction) const;

  /// Derives the program's pair selection in O(rows):
  ///  - row filters from its first deterministic atom, via the ScanColumn
  ///    fast path: base atoms (kBaseNomEq/kBaseNomNe/kBaseNumCmp) require
  ///    both rows to carry the same qualifying value, so one column scan
  ///    constrains both sides; diff-equality atoms (kDiffEq) constrain the
  ///    first row to the target pairs' left codes and the second row to
  ///    their right codes;
  ///  - an equi-join partition on every nominal isSame = T atom,
  ///    intersected with those filters; rows with a missing key code drop
  ///    out, since missing satisfies no atom.
  /// Numeric isSame, compare and diff-inequality atoms relate the two rows
  /// without a transitive key and prune nothing; a program made only of
  /// those (or an always-false one) returns an unconstrained selection.
  /// `rows` must be the compiled-against log's row count.
  PairSelection DeriveSelection(std::size_t rows) const;

 private:
  std::vector<PredInstr> instrs_;
  bool always_false_ = false;
  const ColumnarLog* source_ = nullptr;
};

/// Kernel code of an isSame constant: "T"/"F" -> kTrueCode/kFalseCode,
/// anything else -> -2 (never equal to a produced code). Shared by the
/// predicate compiler and the encoded atom tests so the lowering of the
/// categorical domains has a single definition.
std::int8_t IsSameConstantTarget(const Value& constant);

/// Kernel code of a compare constant: "LT"/"SIM"/"GT" -> 0/1/2, anything
/// else -> -2.
std::int8_t CompareConstantTarget(const Value& constant);

/// All interned (left, right) code pairs whose "(left,right)" diff
/// rendering equals `constant`. A nominal value may itself contain commas,
/// so several splits of the constant can resolve; each match contributes
/// one pair. Shared by the predicate compiler and the encoded atom tests.
std::vector<std::pair<std::int32_t, std::int32_t>> DiffConstantTargets(
    const Value& constant, const StringInterner& interner);

/// A bound Query's three predicates (despite / observed / expected),
/// compiled against one ColumnarLog. The unit ClassifyPairCompiled and the
/// techniques consume: des first (so unrelated pairs cost only the des
/// atoms), then obs/exp for the Definition 8/9 label. Same lifetime and
/// thread-safety rules as CompiledPredicate.
struct CompiledQuery {
  CompiledPredicate despite;
  CompiledPredicate observed;
  CompiledPredicate expected;

  static CompiledQuery Compile(const Query& bound_query,
                               const PairSchema& schema,
                               const ColumnarLog& columns);
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_PXQL_COMPILED_PREDICATE_H_
