#include "pxql/compiled_predicate.h"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "features/pair_feature_kernel.h"

namespace perfxplain {

std::int8_t IsSameConstantTarget(const Value& constant) {
  if (!constant.is_nominal()) return -2;
  if (constant.nominal() == pair_values::kTrue) return kernel::kTrueCode;
  if (constant.nominal() == pair_values::kFalse) return kernel::kFalseCode;
  return -2;
}

std::int8_t CompareConstantTarget(const Value& constant) {
  if (!constant.is_nominal()) return -2;
  if (constant.nominal() == pair_values::kLt) return kernel::kLtCode;
  if (constant.nominal() == pair_values::kSim) return kernel::kSimCode;
  if (constant.nominal() == pair_values::kGt) return kernel::kGtCode;
  return -2;
}

std::vector<std::pair<std::int32_t, std::int32_t>> DiffConstantTargets(
    const Value& constant, const StringInterner& interner) {
  std::vector<std::pair<std::int32_t, std::int32_t>> targets;
  if (!constant.is_nominal()) return targets;
  const std::string& text = constant.nominal();
  if (text.size() < 3 || text.front() != '(' || text.back() != ')') {
    return targets;
  }
  const std::string_view inner(text.data() + 1, text.size() - 2);
  for (std::size_t comma = 0; comma < inner.size(); ++comma) {
    if (inner[comma] != ',') continue;
    const std::int32_t left = interner.Lookup(inner.substr(0, comma));
    if (left == StringInterner::kNoCode) continue;
    const std::int32_t right = interner.Lookup(inner.substr(comma + 1));
    if (right == StringInterner::kNoCode) continue;
    targets.emplace_back(left, right);
  }
  return targets;
}

namespace {

/// Branchless selection append shared by the ScanColumn overloads: the
/// row index is written unconditionally and the cursor advances by the
/// test result, so the loop body is straight-line and auto-vectorizable.
template <typename Test>
void ScanColumnWith(std::size_t rows, std::vector<std::uint32_t>& out,
                    Test&& test) {
  out.resize(rows);
  std::uint32_t* dst = out.data();
  std::size_t count = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    dst[count] = static_cast<std::uint32_t>(r);
    count += static_cast<std::size_t>(test(r));
  }
  out.resize(count);
}

}  // namespace

void ScanColumnEqCode(const std::vector<std::int32_t>& codes,
                      std::int32_t target, std::vector<std::uint32_t>& out) {
  const std::int32_t* c = codes.data();
  ScanColumnWith(codes.size(), out,
                 [c, target](std::size_t r) { return c[r] == target; });
}

void ScanColumnPresentNeCode(const std::vector<std::int32_t>& codes,
                             std::int32_t excluded,
                             std::vector<std::uint32_t>& out) {
  const std::int32_t* c = codes.data();
  ScanColumnWith(codes.size(), out, [c, excluded](std::size_t r) {
    return c[r] != StringInterner::kNoCode && c[r] != excluded;
  });
}

void ScanColumnCodeIn(const std::vector<std::int32_t>& codes,
                      const std::vector<std::int32_t>& targets,
                      std::vector<std::uint32_t>& out) {
  const std::int32_t* c = codes.data();
  ScanColumnWith(codes.size(), out, [&](std::size_t r) {
    for (std::int32_t target : targets) {
      if (c[r] == target) return true;
    }
    return false;
  });
}

void ScanColumnNumCmp(const NumericColumn& column, std::size_t rows,
                      CompareOp cmp, double constant,
                      std::vector<std::uint32_t>& out) {
  ScanColumnWith(rows, out, [&](std::size_t r) {
    return column.present.Test(r) &&
           CompareDoubles(cmp, column.values[r], constant);
  });
}

namespace {

/// Fills the selection's row filters from `instr` when the atom implies a
/// per-row, single-column necessary condition; returns whether it did.
bool SelectRows(const PredInstr& instr, std::size_t rows,
                PairSelection& selection) {
  switch (instr.op) {
    case PredOp::kBaseNomEq:
      // base nominal == c holds only when both rows carry code c.
      ScanColumnEqCode(instr.nom_col->codes, instr.nom_target,
                       selection.first_rows);
      selection.second_rows = selection.first_rows;
      return true;
    case PredOp::kBaseNomNe:
      // base nominal != c needs a shared present code other than c, so
      // each row must hold a present code != c (kNoCode target — a
      // constant the dictionary never saw — degenerates to presence).
      ScanColumnPresentNeCode(instr.nom_col->codes, instr.nom_target,
                              selection.first_rows);
      selection.second_rows = selection.first_rows;
      return true;
    case PredOp::kBaseNumCmp:
      // base numeric <cmp> c requires both rows present with the same
      // value v and cmp(v, c); each row must itself be present with
      // cmp(value, c). NaN passes no CompareDoubles, matching the pair
      // test (NaN != NaN makes the base feature missing).
      ScanColumnNumCmp(*instr.num_col, rows, instr.cmp, instr.num_const,
                       selection.first_rows);
      selection.second_rows = selection.first_rows;
      return true;
    case PredOp::kDiffEq: {
      // diff == "(l,r)" pins the first row to a target left code and the
      // second row to a target right code.
      std::vector<std::int32_t> lefts;
      std::vector<std::int32_t> rights;
      lefts.reserve(instr.diff_targets.size());
      rights.reserve(instr.diff_targets.size());
      for (const auto& [left, right] : instr.diff_targets) {
        lefts.push_back(left);
        rights.push_back(right);
      }
      ScanColumnCodeIn(instr.nom_col->codes, lefts, selection.first_rows);
      ScanColumnCodeIn(instr.nom_col->codes, rights, selection.second_rows);
      return true;
    }
    default:
      return false;
  }
}

/// True for an atom that holds exactly when both rows carry the same
/// present code of a nominal column: nominal isSame = T.
bool IsEquiJoinKey(const PredInstr& instr) {
  return !instr.numeric_raw && instr.op == PredOp::kIsSameEq &&
         instr.code_target == kernel::kTrueCode;
}

/// Groups the rows on the composite key `keys` and narrows the selection
/// to the rows whose keys are all present: group_of per row, then each
/// group's second rows in ascending order (CSR). A first row whose group
/// holds no second row has no candidate pair and is dropped.
void PartitionOnKeys(const std::vector<const NominalColumn*>& keys,
                     std::size_t rows, PairSelection& selection) {
  constexpr std::uint32_t kNoGroup = PairSelection::kNoGroup;
  std::vector<std::uint32_t>& group = selection.group_of;
  group.assign(rows, 0);
  std::size_t groups = 1;
  // Refine the groups one key at a time: visit the rows group by group
  // and number each group's distinct codes in turn, so rows share an id
  // exactly when they share the group and the code. Dictionary codes are
  // dense, so a code-indexed table stamped with the group being visited
  // stands in for a hash map.
  std::vector<std::uint32_t> order(rows);
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> id_of;
  for (const NominalColumn* key : keys) {
    start.assign(groups + 1, 0);
    std::int32_t max_code = -1;
    for (std::size_t r = 0; r < rows; ++r) {
      if (group[r] == kNoGroup) continue;
      ++start[group[r] + 1];
      max_code = std::max(max_code, key->codes[r]);
    }
    for (std::size_t g = 0; g < groups; ++g) start[g + 1] += start[g];
    const std::size_t present = start[groups];
    for (std::size_t r = 0; r < rows; ++r) {
      if (group[r] != kNoGroup) {
        order[start[group[r]]++] = static_cast<std::uint32_t>(r);
      }
    }
    stamp.assign(static_cast<std::size_t>(max_code + 1), kNoGroup);
    id_of.resize(stamp.size());
    std::uint32_t next = 0;
    for (std::size_t k = 0; k < present; ++k) {
      const std::uint32_t r = order[k];
      if (key->codes[r] < 0) {
        group[r] = kNoGroup;
        continue;
      }
      const std::size_t code = static_cast<std::size_t>(key->codes[r]);
      if (stamp[code] != group[r]) {
        stamp[code] = group[r];
        id_of[code] = next++;
      }
      group[r] = id_of[code];
    }
    groups = next;
  }
  const auto missing = [&](std::uint32_t r) { return group[r] == kNoGroup; };
  std::vector<std::uint32_t>& second = selection.second_rows;
  second.erase(std::remove_if(second.begin(), second.end(), missing),
               second.end());
  std::vector<std::uint32_t>& begin = selection.group_begin;
  begin.assign(groups + 1, 0);
  for (std::uint32_t r : second) ++begin[group[r] + 1];
  for (std::size_t g = 0; g < groups; ++g) begin[g + 1] += begin[g];
  selection.group_rows.resize(second.size());
  std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
  for (std::uint32_t r : second) selection.group_rows[fill[group[r]]++] = r;
  std::vector<std::uint32_t>& first = selection.first_rows;
  first.erase(std::remove_if(first.begin(), first.end(),
                             [&](std::uint32_t r) {
                               return missing(r) ||
                                      begin[group[r]] == begin[group[r] + 1];
                             }),
              first.end());
}

}  // namespace

PairSelection CompiledPredicate::DeriveSelection(std::size_t rows) const {
  PairSelection selection;
  if (always_false_) return selection;
  std::vector<const NominalColumn*> keys;
  for (const PredInstr& instr : instrs_) {
    if (IsEquiJoinKey(instr)) keys.push_back(instr.nom_col);
    if (!selection.constrained) {
      selection.constrained = SelectRows(instr, rows, selection);
    }
  }
  if (keys.empty()) return selection;
  if (!selection.constrained) {
    selection.first_rows.resize(rows);
    std::iota(selection.first_rows.begin(), selection.first_rows.end(), 0u);
    selection.second_rows = selection.first_rows;
    selection.constrained = true;
  }
  PartitionOnKeys(keys, rows, selection);
  return selection;
}

namespace {

/// Lowers one bound atom. Unrepresentable combinations (kind mismatches,
/// constants the dictionary has never seen for equality tests, ordering
/// operators on nominal-valued features) compile to kAlwaysFalse — the
/// exact behavior of Atom::Matches, decided once instead of per pair.
PredInstr CompileAtom(const Atom& atom, const PairSchema& schema,
                      const ColumnarLog& columns) {
  PX_CHECK(atom.bound()) << "cannot compile unbound atom: " << atom.feature();
  PredInstr instr;
  const std::size_t pair_index = atom.pair_index();
  const std::size_t col = schema.RawIndexOf(pair_index);
  instr.numeric_raw = columns.is_numeric(col);
  if (instr.numeric_raw) {
    instr.num_col = &columns.numeric_column(col);
  } else {
    instr.nom_col = &columns.nominal_column(col);
  }
  const PairFeatureKind kind = schema.KindOf(pair_index);
  const Value& constant = atom.constant();
  const CompareOp op = atom.op();
  const bool ordering = op != CompareOp::kEq && op != CompareOp::kNe;

  // compare features of nominal raw features and diff features of numeric
  // raw features are always missing; missing satisfies no atom.
  if (kind == PairFeatureKind::kCompare && !instr.numeric_raw) return instr;
  if (kind == PairFeatureKind::kDiff && instr.numeric_raw) return instr;

  switch (kind) {
    case PairFeatureKind::kIsSame: {
      if (ordering) return instr;  // value is never numeric
      const std::int8_t target = IsSameConstantTarget(constant);
      if (op == CompareOp::kEq) {
        if (target < 0) return instr;  // constant can never be produced
        instr.op = PredOp::kIsSameEq;
        instr.code_target = target;
        return instr;
      }
      // Ne: nominal constants exclude their own code (or nothing, when the
      // constant is not a produced level); other kinds never match.
      if (!constant.is_nominal()) return instr;
      instr.op = PredOp::kIsSameNe;
      instr.code_target = target;  // -2 excludes nothing
      return instr;
    }
    case PairFeatureKind::kCompare: {
      if (ordering) return instr;
      const std::int8_t target = CompareConstantTarget(constant);
      if (op == CompareOp::kEq) {
        if (target < 0) return instr;
        instr.op = PredOp::kCompareEq;
        instr.code_target = target;
        return instr;
      }
      if (!constant.is_nominal()) return instr;
      instr.op = PredOp::kCompareNe;
      instr.code_target = target;
      return instr;
    }
    case PairFeatureKind::kDiff: {
      if (ordering) return instr;
      if (!constant.is_nominal()) return instr;
      instr.diff_targets = DiffConstantTargets(constant, columns.interner());
      if (op == CompareOp::kEq) {
        if (instr.diff_targets.empty()) return instr;
        instr.op = PredOp::kDiffEq;
        return instr;
      }
      instr.op = PredOp::kDiffNe;  // empty targets: any present pair matches
      return instr;
    }
    case PairFeatureKind::kBase: {
      if (instr.numeric_raw) {
        // Base numeric features admit every operator against a numeric
        // constant; any other constant kind fails Atom::Matches.
        if (!constant.is_numeric()) return instr;
        instr.op = PredOp::kBaseNumCmp;
        instr.cmp = op;
        instr.num_const = constant.number();
        return instr;
      }
      if (ordering) return instr;  // ordering needs a numeric value
      if (!constant.is_nominal()) return instr;
      const std::int32_t target = columns.interner().Lookup(
          constant.nominal());
      if (op == CompareOp::kEq) {
        if (target == StringInterner::kNoCode) return instr;
        instr.op = PredOp::kBaseNomEq;
        instr.nom_target = target;
        return instr;
      }
      instr.op = PredOp::kBaseNomNe;
      instr.nom_target = target;  // kNoCode excludes nothing
      return instr;
    }
  }
  return instr;
}

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const Predicate& predicate,
                                             const PairSchema& schema,
                                             const ColumnarLog& columns) {
  CompiledPredicate compiled;
  compiled.source_ = &columns;
  for (const Atom& atom : predicate.atoms()) {
    PredInstr instr = CompileAtom(atom, schema, columns);
    if (instr.op == PredOp::kAlwaysFalse) {
      compiled.always_false_ = true;
      compiled.instrs_.clear();
      return compiled;
    }
    compiled.instrs_.push_back(std::move(instr));
  }
  return compiled;
}

bool CompiledPredicate::Eval(std::size_t i, std::size_t j,
                             double sim_fraction) const {
  if (always_false_) return false;
  for (const PredInstr& instr : instrs_) {
    bool match = false;
    switch (instr.op) {
      case PredOp::kAlwaysFalse:
        return false;
      case PredOp::kIsSameEq:
      case PredOp::kIsSameNe: {
        std::int8_t code;
        if (instr.numeric_raw) {
          const NumericColumn& c = *instr.num_col;
          code = kernel::IsSameNumeric(c.present.Test(i), c.values[i],
                                       c.present.Test(j), c.values[j],
                                       sim_fraction);
        } else {
          const NominalColumn& c = *instr.nom_col;
          code = kernel::IsSameNominal(c.codes[i], c.codes[j]);
        }
        match = instr.op == PredOp::kIsSameEq
                    ? code == instr.code_target
                    : code >= 0 && code != instr.code_target;
        break;
      }
      case PredOp::kCompareEq:
      case PredOp::kCompareNe: {
        const NumericColumn& c = *instr.num_col;
        const std::int8_t code = kernel::CompareNumeric(
            c.present.Test(i), c.values[i], c.present.Test(j), c.values[j],
            sim_fraction);
        match = instr.op == PredOp::kCompareEq
                    ? code == instr.code_target
                    : code >= 0 && code != instr.code_target;
        break;
      }
      case PredOp::kDiffEq:
      case PredOp::kDiffNe: {
        const NominalColumn& c = *instr.nom_col;
        const std::int64_t packed = kernel::DiffPacked(c.codes[i],
                                                       c.codes[j]);
        if (packed == kernel::kMissingDiff) {
          match = false;
          break;
        }
        bool in_targets = false;
        for (const auto& [left, right] : instr.diff_targets) {
          if (kernel::DiffLeft(packed) == left &&
              kernel::DiffRight(packed) == right) {
            in_targets = true;
            break;
          }
        }
        match = instr.op == PredOp::kDiffEq ? in_targets : !in_targets;
        break;
      }
      case PredOp::kBaseNomEq:
      case PredOp::kBaseNomNe: {
        const NominalColumn& c = *instr.nom_col;
        const std::int32_t code = kernel::BaseNominal(c.codes[i], c.codes[j]);
        match = instr.op == PredOp::kBaseNomEq
                    ? code != StringInterner::kNoCode &&
                          code == instr.nom_target
                    : code != StringInterner::kNoCode &&
                          code != instr.nom_target;
        break;
      }
      case PredOp::kBaseNumCmp: {
        const NumericColumn& c = *instr.num_col;
        const kernel::BaseNumericResult base = kernel::BaseNumeric(
            c.present.Test(i), c.values[i], c.present.Test(j), c.values[j]);
        match = base.present &&
                CompareDoubles(instr.cmp, base.value, instr.num_const);
        break;
      }
    }
    if (!match) return false;
  }
  return true;
}

CompiledQuery CompiledQuery::Compile(const Query& bound_query,
                                     const PairSchema& schema,
                                     const ColumnarLog& columns) {
  CompiledQuery compiled;
  compiled.despite =
      CompiledPredicate::Compile(bound_query.despite, schema, columns);
  compiled.observed =
      CompiledPredicate::Compile(bound_query.observed, schema, columns);
  compiled.expected =
      CompiledPredicate::Compile(bound_query.expected, schema, columns);
  return compiled;
}

}  // namespace perfxplain
