#include "ml/encoded_dataset.h"

#include <gtest/gtest.h>

#include <cmath>

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
    ExecutionLog log(schema);
    Rng rng(seed);
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
