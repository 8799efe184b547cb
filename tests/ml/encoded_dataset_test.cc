#include "ml/encoded_dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "common/string_util.h"
#include "ml/decision_tree.h"
#include "ml/split.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

/// Built in place (no moves): the dataset points into `schema` and
/// `columns`, so their addresses must stay stable.
class EncodedFixture {
 public:
  EncodedFixture(std::uint64_t seed, std::size_t n)
      : log(MakeLog(seed, n)),
        schema(log.schema()),
        columns(log),
        pairs(MakePairs(log, seed)),
        dataset(columns, schema, pairs, 0.10),
        examples(MakeExamples(log, schema, pairs)) {}

  EncodedFixture(const EncodedFixture&) = delete;
  EncodedFixture& operator=(const EncodedFixture&) = delete;

  ExecutionLog log;
  PairSchema schema;
  ColumnarLog columns;
  std::vector<PairRef> pairs;
  EncodedDataset dataset;
  std::vector<TrainingExample> examples;

 private:
  static std::vector<TrainingExample> MakeExamples(
      const ExecutionLog& log, const PairSchema& schema,
      const std::vector<PairRef>& pairs) {
    std::vector<TrainingExample> examples;
    PairFeatureOptions options;
    for (const PairRef& pair : pairs) {
      PairFeatureView view(&schema, &log.at(pair.first),
                           &log.at(pair.second), &options);
      TrainingExample example;
      example.first = pair.first;
      example.second = pair.second;
      example.observed = pair.observed;
      example.features = view.Materialize();
      examples.push_back(std::move(example));
    }
    return examples;
  }

  static ExecutionLog MakeLog(std::uint64_t seed, std::size_t n) {
    Schema schema;
    PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("color", ValueKind::kNominal).ok());
    PX_CHECK(schema.Add("y", ValueKind::kNumeric).ok());
    PX_CHECK(schema.Add("z", ValueKind::kNumeric).ok());
    ExecutionLog log(schema);
    Rng rng(seed);
    // z (signed zeros, infinities) draws from its own Rng, so x, color and
    // y do not depend on it.
    Rng z_rng(seed + 1000);
    const double inf = std::numeric_limits<double>::infinity();
    const double z_pool[] = {-0.0, 0.0, 1.0, -inf, inf};
    const char* colors[] = {"red", "blue", "g,reen"};
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Value> values;
      values.push_back(rng.Bernoulli(0.2)
                           ? Value::Missing()
                           : Value::Number(rng.UniformInt(0, 3)));
      values.push_back(rng.Bernoulli(0.2)
                           ? Value::Missing()
                           : Value::Nominal(colors[rng.UniformInt(0, 2)]));
      double y = rng.Uniform(0.0, 4.0);
      if (rng.Bernoulli(0.1)) y = std::nan("");
      values.push_back(Value::Number(y));
      values.push_back(z_rng.Bernoulli(0.15)
                           ? Value::Missing()
                           : Value::Number(z_pool[z_rng.UniformInt(0, 4)]));
      PX_CHECK(log.Add(ExecutionRecord(StrFormat("r%03zu", i),
                                       std::move(values)))
                   .ok());
    }
    return log;
  }

  static std::vector<PairRef> MakePairs(const ExecutionLog& log,
                                        std::uint64_t seed) {
    std::vector<PairRef> pairs;
    Rng rng(seed + 1);
    for (std::size_t i = 0; i < log.size(); ++i) {
      for (std::size_t j = 0; j < log.size(); ++j) {
        if (i == j) continue;
        pairs.push_back({i, j, rng.Bernoulli(0.5)});
      }
    }
    return pairs;
  }
};

TEST(EncodedDatasetTest, DecodesEveryCellToTheValuePath) {
  const EncodedFixture fx(3, 10);
  for (std::size_t r = 0; r < fx.dataset.rows(); ++r) {
    for (std::size_t f = 0; f < fx.schema.size(); ++f) {
      const Value& expected = fx.examples[r].features[f];
      const Value actual = fx.dataset.DecodeValue(f, r);
      if (expected.is_numeric() && std::isnan(expected.number())) {
        ASSERT_TRUE(actual.is_numeric());
        EXPECT_TRUE(std::isnan(actual.number()));
      } else {
        EXPECT_EQ(actual, expected)
            << "row " << r << " " << fx.schema.NameOf(f);
      }
    }
  }
}

/// A one-column log whose base feature holds `values` row for row: each
/// row is paired with itself, so the base cell is present exactly when the
/// value is present and not NaN.
class OneColumnDataset {
 public:
  explicit OneColumnDataset(const std::vector<Value>& values)
      : log(MakeLog(values)),
        schema(log.schema()),
        columns(log),
        pairs(MakePairs(values.size())),
        dataset(columns, schema, pairs, 0.10),
        base(schema.IndexOf(PairFeatureKind::kBase, 0)) {}

  OneColumnDataset(const OneColumnDataset&) = delete;
  OneColumnDataset& operator=(const OneColumnDataset&) = delete;

  const std::vector<std::int32_t>& ranks() const {
    return dataset.NumericRanks(base);
  }
  const std::vector<double>& distinct() const {
    return dataset.NumericDistinct(base);
  }

  ExecutionLog log;
  PairSchema schema;
  ColumnarLog columns;
  std::vector<PairRef> pairs;
  EncodedDataset dataset;
  std::size_t base;

 private:
  static ExecutionLog MakeLog(const std::vector<Value>& values) {
    Schema schema;
    PX_CHECK(schema.Add("v", ValueKind::kNumeric).ok());
    ExecutionLog log(schema);
    for (std::size_t i = 0; i < values.size(); ++i) {
      PX_CHECK(
          log.Add(ExecutionRecord(StrFormat("r%03zu", i), {values[i]})).ok());
    }
    return log;
  }
  static std::vector<PairRef> MakePairs(std::size_t n) {
    std::vector<PairRef> pairs;
    for (std::size_t i = 0; i < n; ++i) pairs.push_back({i, i, i % 2 == 0});
    return pairs;
  }
};

TEST(RankDictionaryTest, AbsentRowsRankMinusOne) {
  const OneColumnDataset fx({Value::Number(2.0), Value::Missing(),
                             Value::Number(std::nan("")),
                             Value::Number(1.0)});
  ASSERT_TRUE(fx.dataset.IsNumericFeature(fx.base));
  EXPECT_EQ(fx.ranks(), (std::vector<std::int32_t>{1, -1, -1, 0}));
  EXPECT_EQ(fx.distinct(), (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(fx.dataset.DecodeValue(fx.base, 1).is_missing());
  EXPECT_TRUE(fx.dataset.DecodeValue(fx.base, 2).is_missing());
  EXPECT_EQ(fx.dataset.DecodeValue(fx.base, 0), Value::Number(2.0));
}

TEST(RankDictionaryTest, SignedZerosShareOneRankHeldAsPositiveZero) {
  for (const bool negative_first : {true, false}) {
    const double first = negative_first ? -0.0 : 0.0;
    const OneColumnDataset fx({Value::Number(first), Value::Number(-1.0),
                               Value::Number(-first), Value::Number(-0.0)});
    EXPECT_EQ(fx.ranks(), (std::vector<std::int32_t>{1, 0, 1, 1}));
    ASSERT_EQ(fx.distinct().size(), 2u);
    EXPECT_EQ(fx.distinct()[1], 0.0);
    EXPECT_FALSE(std::signbit(fx.distinct()[1]));
    EXPECT_FALSE(std::signbit(fx.dataset.DecodeValue(fx.base, 3).number()));
  }
}

TEST(RankDictionaryTest, SingleValueColumn) {
  const OneColumnDataset fx(
      std::vector<Value>(7, Value::Number(4.5)));
  EXPECT_EQ(fx.ranks(), std::vector<std::int32_t>(7, 0));
  EXPECT_EQ(fx.distinct(), std::vector<double>{4.5});
}

TEST(RankDictionaryTest, AllDistinctColumn) {
  // 300 distinct values in shuffled order: the dictionary grows its hash
  // table several times and must still give every row its own rank.
  std::vector<Value> values;
  std::vector<double> sorted;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) sorted.push_back(0.25 * i - 20.0);
  std::vector<double> shuffled = sorted;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[rng.UniformInt(0, static_cast<std::int64_t>(i) - 1)]);
  }
  for (double v : shuffled) values.push_back(Value::Number(v));
  const OneColumnDataset fx(values);
  EXPECT_EQ(fx.distinct(), sorted);
  for (std::size_t r = 0; r < shuffled.size(); ++r) {
    ASSERT_GE(fx.ranks()[r], 0);
    EXPECT_EQ(fx.distinct()[fx.ranks()[r]], shuffled[r]);
  }
}

TEST(RankDictionaryTest, RankOrderEqualsValueOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {-inf, -3.5, -0.0, 0.0, 1e-300, 2.0, 2.5, 1e300, inf};
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<Value> values;
    for (int i = 0; i < 200; ++i) {
      values.push_back(rng.Bernoulli(0.1)
                           ? Value::Missing()
                           : Value::Number(pool[rng.UniformInt(0, 8)]));
    }
    const OneColumnDataset fx(values);
    const std::vector<double>& distinct = fx.distinct();
    for (std::size_t k = 1; k < distinct.size(); ++k) {
      EXPECT_LT(distinct[k - 1], distinct[k]);
    }
    for (std::size_t a = 0; a < values.size(); ++a) {
      const std::int32_t rank_a = fx.ranks()[a];
      ASSERT_EQ(rank_a < 0, values[a].is_missing()) << "row " << a;
      if (rank_a < 0) continue;
      EXPECT_EQ(distinct[rank_a], values[a].number());
      for (std::size_t b = 0; b < values.size(); ++b) {
        const std::int32_t rank_b = fx.ranks()[b];
        if (rank_b < 0) continue;
        EXPECT_EQ(rank_a < rank_b, values[a].number() < values[b].number());
        EXPECT_EQ(rank_a == rank_b,
                  values[a].number() == values[b].number());
      }
    }
  }
}

TEST(EncodedDatasetTest, AtomTestMatchesAtomEval) {
  const EncodedFixture fx(5, 9);
  std::vector<Atom> atoms;
  // A pool covering every feature kind, operators, and constants both in
  // and outside the dictionary.
  for (const char* text :
       {"x_isSame = T", "x_isSame != T", "color_isSame = F",
        "color_diff = (red,blue)", "color_diff != (red,blue)",
        "color_diff = (zz,yy)", "x_compare = SIM", "x_compare != GT",
        "y_compare = LT", "x = 2", "x != 2", "x <= 1", "x >= 3",
        "color = red", "color != red", "color = zz", "color != zz",
        "y >= 2"}) {
    Predicate predicate = testing::MustPredicate(text);
    ASSERT_TRUE(predicate.Bind(fx.schema).ok()) << text;
    atoms.push_back(predicate.atoms()[0]);
  }
  // Every operator on every numeric base feature against Atom::Eval, with
  // constants the columns hold, constants between and beyond them, signed
  // zeros, infinities and NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const double constants[] = {-inf, -1.0, -0.0, 0.0,  0.5, 1.0,
                              1.5,  2.0,  3.0,  3.25, inf, std::nan("")};
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  std::size_t numeric_features = 0;
  for (std::size_t f = 0; f < fx.schema.size(); ++f) {
    if (!fx.dataset.IsNumericFeature(f)) continue;
    ++numeric_features;
    std::vector<double> pool(std::begin(constants), std::end(constants));
    const std::vector<double>& distinct = fx.dataset.NumericDistinct(f);
    pool.insert(pool.end(), distinct.begin(), distinct.end());
    for (double c : pool) {
      for (CompareOp op : ops) {
        atoms.push_back(Atom::Bound(fx.schema, f, op, Value::Number(c)));
      }
    }
  }
  EXPECT_EQ(numeric_features, 3u);  // x, y and z
  for (const Atom& atom : atoms) {
    const EncodedAtomTest test(fx.dataset, atom);
    const PresenceBitmap matching = test.MatchingRows(fx.dataset);
    for (std::size_t r = 0; r < fx.dataset.rows(); ++r) {
      const bool expected = atom.Eval(fx.examples[r].features);
      EXPECT_EQ(test.Matches(fx.dataset, r), expected)
          << atom.ToString() << " row " << r;
      EXPECT_EQ(matching.Test(r), expected)
          << "MatchingRows " << atom.ToString() << " row " << r;
    }
  }
}

void ExpectSameCandidate(const std::optional<SplitCandidate>& actual,
                         const std::optional<SplitCandidate>& expected,
                         const std::string& context) {
  ASSERT_EQ(actual.has_value(), expected.has_value()) << context;
  if (!expected.has_value()) return;
  EXPECT_EQ(actual->atom, expected->atom)
      << context << ": " << actual->atom.ToString() << " vs "
      << expected->atom.ToString();
  // Atom == holds for -0.0 against +0.0; the rendering does not.
  EXPECT_EQ(actual->atom.ToString(), expected->atom.ToString()) << context;
  EXPECT_EQ(actual->gain, expected->gain) << context;
  EXPECT_EQ(actual->in_total, expected->in_total) << context;
  EXPECT_EQ(actual->in_positive, expected->in_positive) << context;
}

/// The counts a candidate carries, recomputed from its atom.
void ExpectCountsMatchAtom(const SplitCandidate& candidate,
                           const std::vector<TrainingExample>& examples,
                           bool target_expected, const std::string& context) {
  std::size_t in_total = 0;
  std::size_t in_positive = 0;
  for (const TrainingExample& example : examples) {
    if (!candidate.atom.Eval(example.features)) continue;
    ++in_total;
    if (example.observed != target_expected) ++in_positive;
  }
  EXPECT_EQ(candidate.in_total, in_total) << context;
  EXPECT_EQ(candidate.in_positive, in_positive) << context;
}

TEST(EncodedSplitTest, BestPredicateMatchesValuePathEveryFeature) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    const EncodedFixture fx(seed, 9);
    std::vector<std::uint32_t> rows(fx.dataset.rows());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      rows[r] = static_cast<std::uint32_t>(r);
    }
    SplitOptions options;
    options.min_support = 2;
    const EncodedClauseSearch search(fx.dataset, /*target_expected=*/false);
    for (std::size_t f = 0; f < fx.schema.size(); ++f) {
      const std::string context = StrFormat(
          "seed %d feature %s", static_cast<int>(seed),
          fx.schema.NameOf(f).c_str());
      // Constrained to the pair of interest (row 0): the clause search.
      options.constrain_to_pair = true;
      const auto expected = BestPredicateForFeature(
          fx.schema, fx.examples, f, fx.examples[0].features[f], options);
      ExpectSameCandidate(search.BestPredicate(f, options), expected,
                          context + " constrained");
      if (expected.has_value()) {
        ExpectCountsMatchAtom(*expected, fx.examples, false, context);
      }
      // Unconstrained: the decision-tree search.
      options.constrain_to_pair = false;
      ExpectSameCandidate(
          BestPredicateForFeatureEncoded(fx.dataset, rows,
                                         fx.dataset.labels(), f,
                                         options.min_support),
          BestPredicateForFeature(fx.schema, fx.examples, f,
                                  Value::Missing(), options),
          context + " unconstrained");
    }
  }
}

/// Filters the clause search on the first nominal, then the first numeric
/// feature with a candidate, checking each Filter against Atom::Eval, then
/// checks every feature's search over the kept rows against the Value path.
/// Returns whether a numeric atom was among the filters.
bool CheckWorkingSubset(std::uint64_t seed, bool target_expected) {
  const EncodedFixture fx(seed, 10);
  EncodedClauseSearch search(fx.dataset, target_expected);
  std::vector<TrainingExample> subset = fx.examples;
  SplitOptions options;
  options.min_support = 2;
  bool numeric_filter = false;
  for (bool numeric : {false, true}) {
    for (std::size_t f = 0; f < fx.schema.size(); ++f) {
      if (fx.dataset.IsNumericFeature(f) != numeric) continue;
      const auto chosen = search.BestPredicate(f, options);
      if (!chosen.has_value()) continue;
      const auto [kept, kept_positive] = search.Filter(*chosen);
      std::vector<TrainingExample> next;
      std::size_t positive = 0;
      for (const TrainingExample& example : subset) {
        if (!chosen->atom.Eval(example.features)) continue;
        if (example.observed != target_expected) ++positive;
        next.push_back(example);
      }
      subset = std::move(next);
      const std::string context = chosen->atom.ToString();
      EXPECT_EQ(kept, subset.size()) << context;
      EXPECT_EQ(kept_positive, positive) << context;
      EXPECT_EQ(search.size(), subset.size()) << context;
      numeric_filter = numeric_filter || numeric;
      break;
    }
  }
  // The Value path sees the flipped labels as `observed`.
  for (TrainingExample& example : subset) {
    example.observed = example.observed != target_expected;
  }
  for (std::size_t f = 0; f < fx.schema.size(); ++f) {
    const std::string context = StrFormat(
        "seed %d target_expected=%d subset feature %s",
        static_cast<int>(seed), target_expected ? 1 : 0,
        fx.schema.NameOf(f).c_str());
    const auto expected = BestPredicateForFeature(
        fx.schema, subset, f, fx.examples[0].features[f], options);
    ExpectSameCandidate(search.BestPredicate(f, options), expected, context);
    if (expected.has_value()) {
      ExpectCountsMatchAtom(*expected, subset, false, context);
    }
  }
  return numeric_filter;
}

TEST(EncodedSplitTest, RespectsWorkingSubsets) {
  int numeric_filters = 0;
  for (std::uint64_t seed = 10; seed < 20; ++seed) {
    for (bool target_expected : {false, true}) {
      if (CheckWorkingSubset(seed, target_expected)) ++numeric_filters;
    }
  }
  EXPECT_GT(numeric_filters, 0);  // some seed filtered on a numeric atom
}

/// The decision-tree search over nominal features: one candidate per
/// decoded Value, visited in Value order. Column n holds "a,b", "c", "a"
/// and "b,c", so the diffs (a,b -> c) and (a -> b,c) both render as
/// "(a,b,c)" and must count as one candidate; column k is never missing,
/// so k_isSame = F and = T tie on gain and the Value path keeps the
/// smaller Value, F, whatever the first row holds.
TEST(EncodedSplitTest, UnconstrainedNominalCandidatesMatchValuePath) {
  Schema log_schema;
  ASSERT_TRUE(log_schema.Add("n", ValueKind::kNominal).ok());
  ASSERT_TRUE(log_schema.Add("k", ValueKind::kNominal).ok());
  ExecutionLog log(log_schema);
  const char* n_values[] = {"a,b", "c", "a", "b,c", "a,b", "c"};
  const char* k_values[] = {"u", "u", "v", "v", "u", "v"};
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(log.Add(ExecutionRecord(StrFormat("r%zu", i),
                                        {Value::Nominal(n_values[i]),
                                         Value::Nominal(k_values[i])}))
                    .ok());
  }
  const PairSchema schema(log.schema());
  const ColumnarLog columns(log);
  // Row 0 is the pair (0, 1): k_isSame = T and n_diff = (a,b,c) come
  // first. The pairs whose diff renders "(a,b,c)" are all observed, so that
  // candidate wins only when both of its encodings are counted.
  std::vector<PairRef> pairs = {{0, 1, true}};
  Rng rng(5);
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (std::size_t j = 0; j < log.size(); ++j) {
      if (i == j) continue;
      const std::string diff =
          StrFormat("(%s,%s)", n_values[i], n_values[j]);
      pairs.push_back({i, j, diff == "(a,b,c)" || rng.Bernoulli(0.2)});
    }
  }
  const EncodedDataset dataset(columns, schema, pairs, 0.10);
  std::vector<TrainingExample> examples;
  PairFeatureOptions options;
  for (const PairRef& pair : pairs) {
    PairFeatureView view(&schema, &log.at(pair.first), &log.at(pair.second),
                         &options);
    examples.push_back({pair.first, pair.second, pair.observed,
                        view.Materialize()});
  }
  std::vector<std::uint32_t> rows(dataset.rows());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r] = static_cast<std::uint32_t>(r);
  }
  SplitOptions split_options;
  split_options.constrain_to_pair = false;
  for (std::size_t f = 0; f < schema.size(); ++f) {
    ExpectSameCandidate(
        BestPredicateForFeatureEncoded(dataset, rows, dataset.labels(), f,
                                       split_options.min_support),
        BestPredicateForFeature(schema, examples, f, Value::Missing(),
                                split_options),
        schema.NameOf(f));
  }
  const std::size_t n_diff = schema.IndexOf(PairFeatureKind::kDiff, 0);
  const auto collided = BestPredicateForFeatureEncoded(
      dataset, rows, dataset.labels(), n_diff, 1);
  ASSERT_TRUE(collided.has_value());
  EXPECT_EQ(collided->atom.constant(), Value::Nominal("(a,b,c)"));
  const std::size_t k_same = schema.IndexOf(PairFeatureKind::kIsSame, 1);
  const auto tie = BestPredicateForFeatureEncoded(dataset, rows,
                                                  dataset.labels(), k_same, 1);
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(tie->atom.constant(), Value::Nominal("F"));
}

TEST(EncodedDecisionTreeTest, FitsIdenticalTrees) {
  for (std::uint64_t seed : {41u, 42u}) {
    const EncodedFixture fx(seed, 10);
    TreeOptions options;
    options.max_depth = 5;
    options.min_leaf = 3;
    DecisionTree value_tree;
    ASSERT_TRUE(value_tree.Fit(fx.schema, fx.examples, options).ok());
    DecisionTree encoded_tree;
    ASSERT_TRUE(encoded_tree.Fit(fx.schema, fx.dataset, options).ok());
    EXPECT_EQ(encoded_tree.node_count(), value_tree.node_count());
    EXPECT_EQ(encoded_tree.depth(), value_tree.depth());
    EXPECT_EQ(encoded_tree.ToString(fx.schema),
              value_tree.ToString(fx.schema));
    for (const TrainingExample& example : fx.examples) {
      EXPECT_DOUBLE_EQ(encoded_tree.PredictProbability(example.features),
                       value_tree.PredictProbability(example.features));
    }
  }
}

}  // namespace
}  // namespace perfxplain
