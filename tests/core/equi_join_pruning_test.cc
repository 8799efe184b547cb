// Independent check of candidate pruning on the despite clause's
// equi-join keys: every despite-driven scan (count, collect, the buffered
// related-pair scan, buffered and streaming sampling, FindPairOfInterest
// with skip, EvaluateExplanation, EvaluateDespiteRelevance and SimButDiff
// on the resident plane, a quarter-plane tile pool and the zero-budget
// stream) must be bitwise identical to an unpruned reference, at 1, 2 and
// 4 threads, on randomized logs built to stress the partition: missing
// key codes, an all-one-key column, an all-distinct column, several keys
// at once, isSame = F and isSame != T atoms, and keys mixed with base and
// diff equalities. The references are EnumerationOptions::prune = false,
// brute-force loops over all n² pairs, and SimButDiff::ExplainLegacy.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/metrics.h"
#include "core/pair_enumeration.h"
#include "core/sim_but_diff.h"
#include "features/pair_code_store.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::GtVsSimQuery;
using testing::MustPredicate;

/// Columns: k1 (nominal, few values, ~15% missing), k2 (nominal, few
/// values), one (the same value in every row), uniq (a distinct value per
/// row), x (numeric), duration (numeric).
ExecutionLog KeyedLog(std::uint64_t seed, std::size_t rows) {
  Schema schema;
  for (const char* name : {"k1", "k2", "one", "uniq"}) {
    PX_CHECK(schema.Add(name, ValueKind::kNominal).ok());
  }
  PX_CHECK(schema.Add("x", ValueKind::kNumeric).ok());
  PX_CHECK(schema.Add("duration", ValueKind::kNumeric).ok());
  ExecutionLog log(schema);
  Rng rng(seed);
  const char* k1_pool[] = {"a", "b", "c"};
  const char* k2_pool[] = {"a", "b", "a,b"};
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Value> values;
    values.push_back(rng.UniformInt(0, 6) == 0
                         ? Value::Missing()
                         : Value::Nominal(k1_pool[rng.UniformInt(0, 2)]));
    values.push_back(Value::Nominal(k2_pool[rng.UniformInt(0, 2)]));
    values.push_back(Value::Nominal("same"));
    values.push_back(Value::Nominal(StrFormat("u%03zu", r)));
    values.push_back(Value::Number(static_cast<double>(rng.UniformInt(1, 3))));
    values.push_back(
        Value::Number(static_cast<double>(rng.UniformInt(100, 130))));
    PX_CHECK(
        log.Add(ExecutionRecord(StrFormat("r%03zu", r), std::move(values)))
            .ok());
  }
  return log;
}

/// Despite clauses: each exercises the partition (or deliberately does
/// not) in one of the ways the header comment lists.
const std::vector<std::string>& DespiteClauses() {
  static const std::vector<std::string> clauses = {
      "k1_isSame = T",
      "k1_isSame = T AND k2_isSame = T",
      "k2_isSame = T AND k1_isSame = T AND x_isSame = T",
      "one_isSame = T",
      "uniq_isSame = T",
      "one_isSame = T AND k1_isSame = T",
      "k1_isSame = F",
      "k1_isSame != T",
      "k2_isSame != F",
      "k1_isSame = F AND k2_isSame = T",
      "k1_isSame = T AND k2 = a",
      "k2 = b AND k1_isSame = T",
      "k1_isSame = T AND k2_diff = (a,b)",
      "k2_diff = (a,b) AND k1_isSame = T",
      "k1_isSame = T AND x_compare = SIM",
      "x_isSame = T"};
  return clauses;
}

template <typename T>
void ExpectSamePairs(const std::vector<T>& actual,
                     const std::vector<T>& expected,
                     const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(actual[p].first, expected[p].first) << context << " #" << p;
    EXPECT_EQ(actual[p].second, expected[p].second) << context << " #" << p;
    EXPECT_EQ(actual[p].observed, expected[p].observed)
        << context << " #" << p;
  }
}

void ExpectSameExplanation(const Result<Explanation>& actual,
                           const Result<Explanation>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok()) << context;
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << context;
    return;
  }
  ASSERT_EQ(actual->because_trace.size(), expected->because_trace.size())
      << context;
  for (std::size_t a = 0; a < expected->because_trace.size(); ++a) {
    EXPECT_EQ(actual->because_trace[a].atom, expected->because_trace[a].atom)
        << context << " atom " << a;
    EXPECT_EQ(actual->because_trace[a].score,
              expected->because_trace[a].score)
        << context << " atom " << a;
  }
}

class EquiJoinPruningTest : public ::testing::Test {
 protected:
  void TearDown() override { SetDefaultEnumerationThreads(0); }
};

TEST_F(EquiJoinPruningTest, EveryDespiteScanMatchesUnprunedReference) {
  constexpr double kSim = 0.10;
  for (std::uint64_t seed : {3u, 17u, 40u}) {
    const ExecutionLog log = KeyedLog(seed, 28);
    const PairSchema schema(log.schema());
    const ColumnarLog columns(log);
    const std::size_t n = columns.rows();
    PairCodeStore store(&columns);
    for (const std::string& despite : DespiteClauses()) {
      Query query = GtVsSimQuery(despite);
      ASSERT_TRUE(query.Bind(schema).ok()) << despite;
      const CompiledQuery compiled =
          CompiledQuery::Compile(query, schema, columns);
      // The unpruned, single-threaded reference list of related pairs.
      EnumerationOptions reference_options;
      reference_options.threads = 1;
      reference_options.prune = false;
      const std::vector<PairRef> reference =
          CollectRelatedPairs(columns, compiled, kSim, reference_options);
      const RelatedCounts reference_counts =
          CountRelatedPairs(columns, compiled, kSim, reference_options);
      std::vector<PairRef> observed;
      for (const PairRef& pair : reference) {
        if (pair.observed) observed.push_back(pair);
      }
      // Brute-force EvaluateExplanation / EvaluateDespiteRelevance
      // reference for a fixed explanation over all n² pairs.
      Explanation explanation;
      explanation.despite = MustPredicate("k2_isSame = T");
      explanation.because = MustPredicate("x_isSame = F");
      ASSERT_TRUE(explanation.despite.Bind(schema).ok());
      ASSERT_TRUE(explanation.because.Bind(schema).ok());
      const CompiledPredicate ext_despite =
          CompiledPredicate::Compile(explanation.despite, schema, columns);
      const CompiledPredicate because =
          CompiledPredicate::Compile(explanation.because, schema, columns);
      ExplanationMetrics brute;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          const PairLabel label = ClassifyPairCompiled(compiled, i, j, kSim);
          if (label == PairLabel::kUnrelated) continue;
          if (!ext_despite.Eval(i, j, kSim)) continue;
          ++brute.pairs_despite;
          if (label == PairLabel::kExpected) ++brute.pairs_despite_exp;
          if (!because.Eval(i, j, kSim)) continue;
          ++brute.pairs_because;
          if (label == PairLabel::kObserved) ++brute.pairs_because_obs;
        }
      }

      for (int threads : {1, 2, 4}) {
        SetDefaultEnumerationThreads(threads);
        const std::string context =
            StrFormat("seed %llu threads %d despite '%s'",
                      static_cast<unsigned long long>(seed), threads,
                      despite.c_str());
        EnumerationOptions pruned;
        pruned.threads = threads;
        EnumerationOptions unpruned = pruned;
        unpruned.prune = false;

        const RelatedCounts counts =
            CountRelatedPairs(columns, compiled, kSim, pruned);
        EXPECT_EQ(counts.observed, reference_counts.observed) << context;
        EXPECT_EQ(counts.expected, reference_counts.expected) << context;
        ExpectSamePairs(CollectRelatedPairs(columns, compiled, kSim, pruned),
                        reference, context + " collect");
        const RelatedPairScan scan =
            ScanRelatedPairs(columns, compiled, kSim, pruned);
        ASSERT_FALSE(scan.overflowed) << context;
        EXPECT_EQ(scan.counts.total(), reference.size()) << context;
        ExpectSamePairs(scan.related, reference, context + " buffered");

        // FindPairOfInterest: the skip-th observed pair in row-major order.
        for (std::size_t skip : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}}) {
          const auto found = FindPairOfInterest(columns, compiled, kSim, skip);
          ASSERT_EQ(found.ok(), skip < observed.size()) << context;
          if (!found.ok()) continue;
          EXPECT_EQ(found->first, observed[skip].first) << context;
          EXPECT_EQ(found->second, observed[skip].second) << context;
        }

        const ExplanationMetrics metrics = EvaluateExplanation(
            log, schema, query, explanation, PairFeatureOptions());
        EXPECT_EQ(metrics.pairs_despite, brute.pairs_despite) << context;
        EXPECT_EQ(metrics.pairs_despite_exp, brute.pairs_despite_exp)
            << context;
        EXPECT_EQ(metrics.pairs_because, brute.pairs_because) << context;
        EXPECT_EQ(metrics.pairs_because_obs, brute.pairs_because_obs)
            << context;
        const double relevance = EvaluateDespiteRelevance(
            log, schema, query, explanation.despite, PairFeatureOptions());
        EXPECT_EQ(relevance,
                  brute.pairs_despite == 0
                      ? 0.0
                      : static_cast<double>(brute.pairs_despite_exp) /
                            static_cast<double>(brute.pairs_despite))
            << context;

        if (observed.empty()) continue;
        const std::size_t poi_first = observed.front().first;
        const std::size_t poi_second = observed.front().second;
        // Buffered replay and the cap-0 streaming draws, both vs unpruned.
        for (std::size_t cap : {std::size_t{1} << 21, std::size_t{0}}) {
          pruned.sample_buffer_cap = cap;
          unpruned.sample_buffer_cap = cap;
          Rng rng_pruned(seed + 5);
          Rng rng_unpruned(seed + 5);
          SamplerOptions sampler;
          sampler.sample_size = 12;
          const auto a =
              SampleRelatedPairs(columns, compiled, poi_first, poi_second,
                                 kSim, sampler, rng_pruned, true, pruned);
          const auto b =
              SampleRelatedPairs(columns, compiled, poi_first, poi_second,
                                 kSim, sampler, rng_unpruned, true, unpruned);
          ASSERT_TRUE(a.ok() && b.ok()) << context;
          ExpectSamePairs(*a, *b, context + StrFormat(" sample cap %zu", cap));
        }

        // SimButDiff on the resident plane, a quarter-plane tile pool and
        // the zero-budget stream, each against the lazy unpruned legacy
        // scan.
        Query with_ids = query;
        with_ids.first_id = log.at(poi_first).id;
        with_ids.second_id = log.at(poi_second).id;
        const std::size_t plane =
            PairCodeStore::BytesNeeded(n, schema.raw_size());
        for (std::size_t budget : {plane, plane / 4, std::size_t{0}}) {
          SimButDiffOptions options;
          options.threads = threads;
          options.pair_code_budget_bytes = budget;
          const SimButDiff technique(&log, options, &columns, &store);
          ExpectSameExplanation(
              technique.Explain(with_ids, 3),
              technique.ExplainLegacy(with_ids, 3),
              context + StrFormat(" simbutdiff budget %zu", budget));
        }
      }
    }
  }
}

TEST_F(EquiJoinPruningTest, RelatedPairBufferOverflowsExactlyAboveTheCap) {
  // Nearly every candidate of a one-group partition is related, so each
  // stripe buffers thousands of pairs and publishes its count in batches;
  // the buffer must still be complete at or under the cap and flagged
  // overflowed exactly above it.
  const ExecutionLog log = KeyedLog(5, 80);
  const PairSchema schema(log.schema());
  const ColumnarLog columns(log);
  Query query = GtVsSimQuery("one_isSame = T");
  ASSERT_TRUE(query.Bind(schema).ok());
  const CompiledQuery compiled =
      CompiledQuery::Compile(query, schema, columns);
  EnumerationOptions reference_options;
  reference_options.threads = 1;
  reference_options.prune = false;
  const std::vector<PairRef> reference =
      CollectRelatedPairs(columns, compiled, 0.10, reference_options);
  const std::size_t total = reference.size();
  ASSERT_GT(total, 3000u);
  for (int threads : {1, 2, 4}) {
    for (std::size_t cap : {std::size_t{0}, std::size_t{1000}, total - 1,
                            total, total + 1, std::size_t{1} << 21}) {
      EnumerationOptions enumeration;
      enumeration.threads = threads;
      enumeration.sample_buffer_cap = cap;
      const RelatedPairScan scan =
          ScanRelatedPairs(columns, compiled, 0.10, enumeration);
      const std::string context =
          StrFormat("threads %d cap %zu total %zu", threads, cap, total);
      EXPECT_EQ(scan.counts.total(), total) << context;
      ASSERT_EQ(scan.overflowed, cap == 0 || total > cap) << context;
      if (!scan.overflowed) ExpectSamePairs(scan.related, reference, context);
    }
  }
}

TEST_F(EquiJoinPruningTest, CandidatesAreExactlyTheKeyEqualPairsInRowMajor) {
  const ExecutionLog log = KeyedLog(11, 40);
  const PairSchema schema(log.schema());
  const ColumnarLog columns(log);
  const std::size_t n = columns.rows();
  const std::size_t k1 = log.schema().IndexOf("k1");
  const std::size_t k2 = log.schema().IndexOf("k2");
  Predicate despite = MustPredicate("k1_isSame = T AND k2_isSame = T");
  ASSERT_TRUE(despite.Bind(schema).ok());
  const CompiledPredicate compiled =
      CompiledPredicate::Compile(despite, schema, columns);
  const CandidatePairs candidates(compiled, n, /*prune=*/true);
  ASSERT_FALSE(candidates.all_pairs());
  std::vector<std::pair<std::size_t, std::size_t>> visited;
  for (std::uint32_t i : candidates.first_rows()) {
    for (std::uint32_t j : candidates.partners(i)) {
      if (i != j) visited.emplace_back(i, j);
    }
  }
  // The partition is exact for pure-key clauses: it visits precisely the
  // pairs sharing both present keys, in row-major order.
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Value& a1 = log.at(i).values[k1];
      const Value& a2 = log.at(i).values[k2];
      if (i == j || a1.is_missing() || a2.is_missing()) continue;
      if (a1 == log.at(j).values[k1] && a2 == log.at(j).values[k2]) {
        expected.emplace_back(i, j);
      }
    }
  }
  EXPECT_EQ(visited, expected);
  EXPECT_LT(visited.size(), n * (n - 1) / 4);

  // Pruning off, or a clause without a nominal key, visits every pair.
  EXPECT_TRUE(CandidatePairs(compiled, n, /*prune=*/false).all_pairs());
  Predicate numeric = MustPredicate("x_isSame = T AND k1_isSame != T");
  ASSERT_TRUE(numeric.Bind(schema).ok());
  EXPECT_TRUE(CandidatePairs(CompiledPredicate::Compile(numeric, schema,
                                                        columns),
                             n, /*prune=*/true)
                  .all_pairs());
}

}  // namespace
}  // namespace perfxplain
