// The snapshot's related-pair index (core/related_pair_index.h) against
// the scans it replaces. Every check is bitwise: the index's §4.3 sample
// must equal SampleRelatedPairs field for field (and leave the Rng in the
// same state), its Evaluate must equal EvaluateExplanation on every
// ExplanationMetrics field and on the %a text of every double, and the
// Engine must answer identically whether the index was warm, cold, built
// by a racing thread, refused for its size, or left unbuilt by an
// interrupted request. Covered: 20 seeds, balanced and uniform sampling,
// a pair of interest inside and outside the related set, threads 1/2/4,
// pruning on and off, logs with missing key codes, an all-one-key and an
// all-distinct column, and simulated task and job logs.

#include "core/related_pair_index.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "core/pair_enumeration.h"
#include "log/catalog.h"
#include "pxql/parser.h"
#include "simulator/trace_generator.h"
#include "testing/test_util.h"

namespace perfxplain {
namespace {

using testing::GtVsSimQuery;
using testing::MustPredicate;

constexpr double kSim = 0.10;
constexpr std::size_t kUnlimitedBytes =
    std::numeric_limits<std::size_t>::max();

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

std::string Hex(double value) { return StrFormat("%a", value); }

/// One query shape over one log, with its pair of interest resolved.
struct Shape {
  std::string name;
  const ExecutionLog* log = nullptr;
  Query query;  ///< unbound, pair-of-interest ids set
};

void ExpectSameSample(const std::vector<PairRef>& actual,
                      const std::vector<PairRef>& expected,
                      const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t p = 0; p < expected.size(); ++p) {
    ASSERT_EQ(actual[p].first, expected[p].first) << context << " #" << p;
    ASSERT_EQ(actual[p].second, expected[p].second) << context << " #" << p;
    ASSERT_EQ(actual[p].observed, expected[p].observed)
        << context << " #" << p;
  }
}

void ExpectSameMetrics(const ExplanationMetrics& actual,
                       const ExplanationMetrics& expected,
                       const std::string& context) {
  EXPECT_EQ(actual.relevance, expected.relevance) << context;
  EXPECT_EQ(actual.precision, expected.precision) << context;
  EXPECT_EQ(actual.generality, expected.generality) << context;
  EXPECT_EQ(Hex(actual.relevance), Hex(expected.relevance)) << context;
  EXPECT_EQ(Hex(actual.precision), Hex(expected.precision)) << context;
  EXPECT_EQ(Hex(actual.generality), Hex(expected.generality)) << context;
  EXPECT_EQ(actual.pairs_despite, expected.pairs_despite) << context;
  EXPECT_EQ(actual.pairs_despite_exp, expected.pairs_despite_exp) << context;
  EXPECT_EQ(actual.pairs_because, expected.pairs_because) << context;
  EXPECT_EQ(actual.pairs_because_obs, expected.pairs_because_obs) << context;
}

void ExpectSameTrace(const std::vector<ExplanationAtom>& actual,
                     const std::vector<ExplanationAtom>& expected,
                     const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t a = 0; a < expected.size(); ++a) {
    EXPECT_EQ(actual[a].atom, expected[a].atom) << context << " atom " << a;
    EXPECT_EQ(Hex(actual[a].info_gain), Hex(expected[a].info_gain))
        << context << " atom " << a;
    EXPECT_EQ(Hex(actual[a].score), Hex(expected[a].score))
        << context << " atom " << a;
    EXPECT_EQ(Hex(actual[a].metric_after), Hex(expected[a].metric_after))
        << context << " atom " << a;
    EXPECT_EQ(Hex(actual[a].generality_after),
              Hex(expected[a].generality_after))
        << context << " atom " << a;
  }
}

void ExpectSameResponse(const Result<ExplainResponse>& actual,
                        const Result<ExplainResponse>& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok())
      << context << ": "
      << (actual.ok() ? expected.status() : actual.status()).ToString();
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << context;
    return;
  }
  EXPECT_EQ(actual->explanation.despite, expected->explanation.despite)
      << context;
  EXPECT_EQ(actual->explanation.because, expected->explanation.because)
      << context;
  ExpectSameTrace(actual->explanation.despite_trace,
                  expected->explanation.despite_trace, context + " des");
  ExpectSameTrace(actual->explanation.because_trace,
                  expected->explanation.because_trace, context + " bec");
  ASSERT_EQ(actual->metrics.has_value(), expected->metrics.has_value())
      << context;
  if (expected->metrics.has_value()) {
    ExpectSameMetrics(*actual->metrics, *expected->metrics, context);
  }
}

class RelatedPairIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceOptions options;
    options.seed = 321;
    int id = 0;
    for (int instances : {1, 2, 4}) {
      for (double input_gb : {1.3, 2.6}) {
        for (double block_mb : {64.0, 256.0, 1024.0}) {
          for (const char* script :
               {"simple-filter.pig", "simple-groupby.pig"}) {
            JobConfig config;
            config.job_id = "job_" + std::to_string(id++);
            config.num_instances = instances;
            config.input_size_bytes = input_gb * 1024 * 1024 * 1024;
            config.block_size_bytes = block_mb * 1024 * 1024;
            config.pig_script = script;
            options.jobs.push_back(config);
          }
        }
      }
    }
    Trace trace = GenerateTrace(options).value();
    const Schema& schema = trace.task_log.schema();
    const std::size_t f_type = schema.IndexOf(feature_names::kTaskType);
    const std::size_t f_maps = schema.IndexOf(feature_names::kNumMapTasks);
    const std::size_t f_instances =
        schema.IndexOf(feature_names::kNumInstances);
    tasks_ = new ExecutionLog(
        trace.task_log.Filter([&](const ExecutionRecord& record) {
          return record.values[f_type].nominal() == "map" &&
                 record.values[f_maps].number() >=
                     3 * 2 * record.values[f_instances].number();
        }));
    jobs_ = new ExecutionLog(std::move(trace.job_log));
    keyed_ = new ExecutionLog(KeyedLog(17, 36));
  }

  static void TearDownTestSuite() {
    delete tasks_;
    delete jobs_;
    delete keyed_;
    tasks_ = jobs_ = keyed_ = nullptr;
  }

  void TearDown() override { SetDefaultEnumerationThreads(0); }

  /// `text` parsed, with the `skip`-th observed pair of `log` as its pair
  /// of interest.
  static Query Located(const ExecutionLog& log, const std::string& text,
                       std::size_t skip = 0) {
    auto parsed = ParseQuery(text);
    PX_CHECK(parsed.ok()) << parsed.status().ToString();
    Query query = std::move(parsed).value();
    Query bound = query;
    PX_CHECK(bound.Bind(PairSchema(log.schema())).ok());
    auto poi = FindPairOfInterest(log, PairSchema(log.schema()), bound,
                                  PairFeatureOptions(), skip);
    PX_CHECK(poi.ok()) << text << ": " << poi.status().ToString();
    query.first_id = log.at(poi->first).id;
    query.second_id = log.at(poi->second).id;
    return query;
  }

  static std::vector<Shape> Shapes() {
    std::vector<Shape> shapes;
    for (const char* despite :
         {"k1_isSame = T", "one_isSame = T", "uniq_isSame = T",
          "k1_isSame = T AND k2_isSame = T", "k1_isSame != T",
          "k1_isSame = T AND x_compare = SIM"}) {
      const std::string text =
          std::string("DESPITE ") + despite +
          " OBSERVED duration_compare = GT EXPECTED duration_compare = SIM";
      auto parsed = ParseQuery(text);
      PX_CHECK(parsed.ok());
      Query bound = parsed.value();
      PX_CHECK(bound.Bind(PairSchema(keyed_->schema())).ok());
      // The all-distinct key relates nothing and has no pair of interest.
      if (!FindPairOfInterest(*keyed_, PairSchema(keyed_->schema()), bound,
                              PairFeatureOptions())
               .ok()) {
        Shape shape{despite, keyed_, parsed.value()};
        shape.query.first_id = keyed_->at(0).id;
        shape.query.second_id = keyed_->at(1).id;
        shapes.push_back(shape);
        continue;
      }
      shapes.push_back(Shape{despite, keyed_, Located(*keyed_, text)});
    }
    shapes.push_back(Shape{
        "tasks", tasks_,
        Located(*tasks_,
                "DESPITE jobID_isSame = T AND inputsize_compare = SIM "
                "AND hostname_isSame = T "
                "OBSERVED duration_compare = LT "
                "EXPECTED duration_compare = SIM")});
    shapes.push_back(Shape{
        "jobs", jobs_,
        Located(*jobs_,
                "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
                "OBSERVED duration_compare = GT "
                "EXPECTED duration_compare = SIM")});
    return shapes;
  }

  static ExecutionLog* tasks_;
  static ExecutionLog* jobs_;
  static ExecutionLog* keyed_;
};

ExecutionLog* RelatedPairIndexTest::tasks_ = nullptr;
ExecutionLog* RelatedPairIndexTest::jobs_ = nullptr;
ExecutionLog* RelatedPairIndexTest::keyed_ = nullptr;

TEST_F(RelatedPairIndexTest, SampleMatchesSampleRelatedPairs) {
  for (const Shape& shape : Shapes()) {
    const ExecutionLog& log = *shape.log;
    const PairSchema schema(log.schema());
    const ColumnarLog columns(log);
    Query bound = shape.query;
    ASSERT_TRUE(bound.Bind(schema).ok()) << shape.name;
    const CompiledQuery compiled =
        CompiledQuery::Compile(bound, schema, columns);
    const std::size_t n = columns.rows();
    const std::size_t poi_first = log.Find(bound.first_id).value();
    const std::size_t poi_second = log.Find(bound.second_id).value();
    const std::vector<PairRef> related =
        CollectRelatedPairs(columns, compiled, kSim);
    // A pair outside the related set, when the log has one.
    std::vector<std::pair<std::size_t, std::size_t>> pois = {
        {poi_first, poi_second}};
    for (std::size_t i = 0; i < n && pois.size() < 2; ++i) {
      for (std::size_t j = 0; j < n && pois.size() < 2; ++j) {
        if (i != j && ClassifyPairCompiled(compiled, i, j, kSim) ==
                          PairLabel::kUnrelated) {
          pois.emplace_back(i, j);
        }
      }
    }
    SamplerOptions sampler;
    sampler.sample_size = n > 200 ? 2000 : 40;
    for (int threads : {1, 2, 4}) {
      for (bool prune : {true, false}) {
        EnumerationOptions enumeration;
        enumeration.threads = threads;
        enumeration.prune = prune;
        // Room for the unpruned n² scan of the larger logs.
        enumeration.sample_buffer_cap = std::size_t{1} << 24;
        const std::shared_ptr<const RelatedPairIndex> index =
            RelatedPairIndex::Build(compiled, n, kSim, enumeration,
                                    kUnlimitedBytes);
        ASSERT_NE(index, nullptr);
        const std::string where = shape.name + StrFormat(" threads=%d prune=%d",
                                                         threads, prune);
        const RelatedCounts counts =
            CountRelatedPairs(columns, compiled, kSim, enumeration);
        EXPECT_EQ(index->counts().observed, counts.observed) << where;
        EXPECT_EQ(index->counts().expected, counts.expected) << where;
        std::vector<PairRef> walked;
        index->ForEachRelated([&](std::size_t i, std::size_t j, bool obs) {
          walked.push_back({i, j, obs});
        });
        ExpectSameSample(walked, related, where + " walk");
        for (const auto& [first, second] : pois) {
          for (bool balanced : {true, false}) {
            for (std::uint64_t seed = 0; seed < 20; ++seed) {
              const std::string context =
                  where + StrFormat(" poi=(%zu,%zu) balanced=%d seed=%llu",
                                    first, second, balanced,
                                    static_cast<unsigned long long>(seed));
              Rng index_rng(seed);
              Rng scan_rng(seed);
              auto from_index = index->SampleDraws(first, second, sampler,
                                                   index_rng, balanced);
              auto from_scan =
                  SampleRelatedPairs(columns, compiled, first, second, kSim,
                                     sampler, scan_rng, balanced, enumeration);
              ASSERT_EQ(from_index.ok(), from_scan.ok()) << context;
              if (!from_scan.ok()) {
                EXPECT_EQ(from_index.status().code(),
                          from_scan.status().code())
                    << context;
                continue;
              }
              ExpectSameSample(*from_index, *from_scan, context);
              // Both consumed the same number of draws.
              EXPECT_EQ(index_rng.engine()(), scan_rng.engine()()) << context;
            }
          }
        }
      }
    }
  }
}

TEST_F(RelatedPairIndexTest, EvaluateMatchesEvaluateExplanation) {
  for (const Shape& shape : Shapes()) {
    const ExecutionLog& log = *shape.log;
    const PairSchema schema(log.schema());
    const Engine engine(log);
    auto prepared = engine.Prepare(shape.query);
    ASSERT_TRUE(prepared.ok()) << shape.name;
    std::vector<Explanation> explanations(1);  // the empty explanation
    if (auto response = engine.Explain(*prepared); response.ok()) {
      explanations.push_back(response->explanation);
      Explanation with_despite = response->explanation;
      const std::string extra =
          shape.log == keyed_ ? "x_compare = SIM"
          : shape.log == tasks_ ? "wave_index_compare = GT"
                                : "inputsize_compare = GT";
      with_despite.despite = MustPredicate(extra);
      explanations.push_back(with_despite);
    }
    if (auto despite = engine.GenerateDespite(*prepared); despite.ok()) {
      Explanation despite_only;
      despite_only.despite = despite.value();
      explanations.push_back(despite_only);
    }
    const std::shared_ptr<const RelatedPairIndex> index =
        engine.snapshot()->related_pairs().Acquire(
            prepared->bound(), kSim, EnumerationOptions{});
    ASSERT_NE(index, nullptr) << shape.name;
    for (const Explanation& explanation : explanations) {
      Explanation bound = explanation;
      ASSERT_TRUE(bound.despite.Bind(schema).ok());
      ASSERT_TRUE(bound.because.Bind(schema).ok());
      const std::string context = shape.name + " des'=[" +
                                  bound.despite.ToString() + "] bec=[" +
                                  bound.because.ToString() + "]";
      const ExplanationMetrics want = EvaluateExplanation(
          log, schema, prepared->bound(), bound, PairFeatureOptions());
      const ColumnarLog& columns = engine.snapshot()->columns();
      ExpectSameMetrics(
          EvaluateExplanation(
              *index, CompiledPredicate::Compile(bound.despite, schema, columns),
              CompiledPredicate::Compile(bound.because, schema, columns),
              kSim),
          want, context + " index");
      auto got = engine.Evaluate(*prepared, explanation);
      ASSERT_TRUE(got.ok()) << context;
      ExpectSameMetrics(*got, want, context + " engine");
    }
  }
}

TEST_F(RelatedPairIndexTest, SecondRequestOfAShapeDoesNotScan) {
  const Query query = Located(
      *tasks_,
      "DESPITE jobID_isSame = T AND inputsize_compare = SIM "
      "AND hostname_isSame = T "
      "OBSERVED duration_compare = LT EXPECTED duration_compare = SIM");
  const Query other_poi = Located(
      *tasks_,
      "DESPITE jobID_isSame = T AND inputsize_compare = SIM "
      "AND hostname_isSame = T "
      "OBSERVED duration_compare = LT EXPECTED duration_compare = SIM",
      5);
  const Engine engine(*tasks_);
  const RelatedPairIndexStore& store = engine.snapshot()->related_pairs();
  auto prepared = engine.Prepare(query);
  auto prepared_other = engine.Prepare(other_poi);
  ASSERT_TRUE(prepared.ok() && prepared_other.ok());
  EXPECT_EQ(store.build_count(), 0u);  // Prepare builds nothing

  ExplainRequest request;
  request.evaluate = true;
  auto first = engine.Explain(*prepared, request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(store.build_count(), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_GT(store.resident_bytes(), 0u);

  // Another pair of interest and seed, GenerateDespite, Evaluate and a
  // batch of the shape: none scans again.
  request.seed = 5;
  ASSERT_TRUE(engine.Explain(*prepared_other, request).ok());
  ASSERT_TRUE(engine.GenerateDespite(*prepared).ok());
  ASSERT_TRUE(engine.Evaluate(*prepared, first->explanation).ok());
  const std::vector<Engine::BatchItem> items = {
      {&*prepared, ExplainRequest{}}, {&*prepared_other, ExplainRequest{}}};
  for (const auto& response : engine.ExplainBatch(items)) {
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->batched);
  }
  EXPECT_EQ(store.build_count(), 1u);
  EXPECT_EQ(store.size(), 1u);

  // The auto-despite request indexes only the prepared shape; its
  // extended query is sampled by a scan.
  ExplainRequest auto_despite;
  auto_despite.auto_despite = true;
  ASSERT_TRUE(engine.Explain(*prepared, auto_despite).ok());
  EXPECT_EQ(store.build_count(), 1u);
  EXPECT_EQ(store.size(), 1u);

  // The answers equal those of an engine whose requests all scan because
  // its shape is never resident when they start.
  const Engine cold(*tasks_);
  auto cold_prepared = cold.Prepare(other_poi);
  ASSERT_TRUE(cold_prepared.ok());
  ExpectSameResponse(engine.Explain(*prepared_other, request),
                     cold.Explain(*cold_prepared, request), "warm vs cold");
}

TEST_F(RelatedPairIndexTest, OverflowingShapeBuildsNothingAndStillMatches) {
  const Query query = Located(
      *jobs_,
      "DESPITE numinstances_isSame = T AND pigscript_isSame = T "
      "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM");
  const LogSnapshot snapshot(*jobs_);
  const RelatedPairIndexStore& store = snapshot.related_pairs();
  Query bound = query;
  ASSERT_TRUE(bound.Bind(snapshot.pair_schema()).ok());
  const CompiledQuery compiled = CompiledQuery::Compile(
      bound, snapshot.pair_schema(), snapshot.columns());
  const RelatedCounts counts =
      CountRelatedPairs(snapshot.columns(), compiled, kSim);
  ASSERT_GT(counts.total(), 2u);
  const std::size_t poi_first = jobs_->Find(bound.first_id).value();
  const std::size_t poi_second = jobs_->Find(bound.second_id).value();

  const std::shared_ptr<const RelatedPairIndex> reference =
      RelatedPairIndex::Build(compiled, snapshot.columns().rows(), kSim,
                              EnumerationOptions{}, kUnlimitedBytes);
  ASSERT_NE(reference, nullptr);
  // Caps the related pairs overflow (0, total - 1) and one they fit but
  // the candidates' bits do not.
  for (std::size_t cap : {std::size_t{0}, counts.total() - 1,
                          reference->candidate_count() - 1}) {
    EnumerationOptions enumeration;
    enumeration.sample_buffer_cap = cap;
    EXPECT_EQ(store.Acquire(bound, kSim, enumeration), nullptr) << cap;
    EXPECT_EQ(store.build_count(), 0u) << cap;
    EXPECT_EQ(store.size(), 0u) << cap;
    SamplerOptions sampler;
    sampler.sample_size = 50;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng index_rng(seed);
      Rng scan_rng(seed);
      auto from_index =
          reference->SampleDraws(poi_first, poi_second, sampler, index_rng);
      auto from_scan =
          SampleRelatedPairs(snapshot.columns(), compiled, poi_first,
                             poi_second, kSim, sampler, scan_rng,
                             /*balanced=*/true, enumeration);
      ASSERT_TRUE(from_index.ok() && from_scan.ok());
      ExpectSameSample(*from_index, *from_scan,
                       StrFormat("cap=%zu seed=%llu", cap,
                                 static_cast<unsigned long long>(seed)));
    }
  }
  // At a cap whose budget holds the index, it is built once.
  EnumerationOptions roomy;
  roomy.sample_buffer_cap = 4 * reference->bytes();
  EXPECT_NE(store.Acquire(bound, kSim, roomy), nullptr);
  EXPECT_EQ(store.build_count(), 1u);
}

TEST_F(RelatedPairIndexTest, LeastRecentlyUsedShapeIsEvicted) {
  const LogSnapshot snapshot(*keyed_);
  const RelatedPairIndexStore& store = snapshot.related_pairs();
  std::vector<Query> shapes;
  for (const char* despite : {"k1_isSame = T", "k2_isSame = T"}) {
    Query query = GtVsSimQuery(despite);
    ASSERT_TRUE(query.Bind(snapshot.pair_schema()).ok());
    shapes.push_back(query);
  }
  const std::shared_ptr<const RelatedPairIndex> a =
      store.Acquire(shapes[0], kSim, EnumerationOptions{});
  ASSERT_NE(a, nullptr);
  // A budget that holds one of the two entries but not both.
  EnumerationOptions tight;
  tight.sample_buffer_cap = 4 * (a->bytes() + a->bytes() / 2);
  const std::shared_ptr<const RelatedPairIndex> b =
      store.Acquire(shapes[1], kSim, tight);
  ASSERT_NE(b, nullptr);
  ASSERT_LE(b->bytes(), RelatedPairIndexStore::BudgetBytes(
                            tight.sample_buffer_cap));
  ASSERT_GT(a->bytes() + b->bytes(),
            RelatedPairIndexStore::BudgetBytes(tight.sample_buffer_cap));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.resident_bytes(), b->bytes());
  EXPECT_EQ(store.build_count(), 2u);
  // The evicted entry stays valid for its holder.
  EXPECT_GT(a->counts().total(), 0u);
  // The resident shape is a hit; the evicted one is built again.
  EXPECT_EQ(store.Acquire(shapes[1], kSim, tight), b);
  EXPECT_EQ(store.build_count(), 2u);
  EXPECT_NE(store.Acquire(shapes[0], kSim, tight), nullptr);
  EXPECT_EQ(store.build_count(), 3u);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(RelatedPairIndexTest, EveryClauseAndTheFractionKeyTheShape) {
  const LogSnapshot snapshot(*keyed_);
  const RelatedPairIndexStore& store = snapshot.related_pairs();
  struct Variant {
    std::string text;
    double sim_fraction;
  };
  const std::vector<Variant> variants = {
      {"DESPITE k1_isSame = T OBSERVED duration_compare = GT "
       "EXPECTED duration_compare = SIM",
       kSim},
      {"DESPITE k2_isSame = T OBSERVED duration_compare = GT "
       "EXPECTED duration_compare = SIM",
       kSim},
      {"DESPITE k1_isSame = T OBSERVED duration_compare = LT "
       "EXPECTED duration_compare = SIM",
       kSim},
      {"DESPITE k1_isSame = T OBSERVED duration_compare = GT "
       "EXPECTED duration_compare = LT",
       kSim},
      {"DESPITE k1_isSame = T OBSERVED duration_compare = GT "
       "EXPECTED duration_compare = SIM",
       0.2},
      {"DESPITE k1_isSame = T AND x >= 0.0 OBSERVED duration_compare = GT "
       "EXPECTED duration_compare = SIM",
       kSim},
      {"DESPITE k1_isSame = T AND x >= -0.0 OBSERVED duration_compare = GT "
       "EXPECTED duration_compare = SIM",
       kSim}};
  std::size_t built = 0;
  for (const Variant& variant : variants) {
    auto parsed = ParseQuery(variant.text);
    ASSERT_TRUE(parsed.ok()) << variant.text;
    Query bound = parsed.value();
    ASSERT_TRUE(bound.Bind(snapshot.pair_schema()).ok()) << variant.text;
    const std::shared_ptr<const RelatedPairIndex> index =
        store.Acquire(bound, variant.sim_fraction, EnumerationOptions{});
    ASSERT_NE(index, nullptr) << variant.text;
    EXPECT_EQ(store.build_count(), ++built) << variant.text;
    const RelatedCounts want = CountRelatedPairs(
        snapshot.columns(),
        CompiledQuery::Compile(bound, snapshot.pair_schema(),
                               snapshot.columns()),
        variant.sim_fraction);
    EXPECT_EQ(index->counts().observed, want.observed) << variant.text;
    EXPECT_EQ(index->counts().expected, want.expected) << variant.text;
    // A repeat is a hit.
    EXPECT_EQ(store.Acquire(bound, variant.sim_fraction,
                            EnumerationOptions{}),
              index);
  }
  EXPECT_EQ(store.size(), variants.size());
  EXPECT_EQ(store.build_count(), variants.size());
}

TEST_F(RelatedPairIndexTest, InterruptedFirstRequestLeavesNoEntry) {
  const Query query = Located(
      *tasks_,
      "DESPITE jobID_isSame = T AND inputsize_compare = SIM "
      "AND hostname_isSame = T "
      "OBSERVED duration_compare = LT EXPECTED duration_compare = SIM");
  ExplainRequest clean;
  clean.evaluate = true;
  const Engine cold(*tasks_);
  auto cold_prepared = cold.Prepare(query);
  ASSERT_TRUE(cold_prepared.ok());
  const Result<ExplainResponse> want = cold.Explain(*cold_prepared, clean);
  ASSERT_TRUE(want.ok());

  // A pre-cancelled request through the Engine.
  {
    const Engine engine(*tasks_);
    const RelatedPairIndexStore& store = engine.snapshot()->related_pairs();
    auto prepared = engine.Prepare(query);
    ASSERT_TRUE(prepared.ok());
    ExplainRequest cancelled = clean;
    auto token = std::make_shared<CancelToken>();
    token->Cancel();
    cancelled.cancel = token;
    auto response = engine.Explain(*prepared, cancelled);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.build_count(), 0u);
    ExpectSameResponse(engine.Explain(*prepared, clean), want,
                       "after cancel");
    EXPECT_EQ(store.build_count(), 1u);
  }
  // A request whose deadline passed before the build's first checkpoint.
  {
    const Engine engine(*tasks_);
    const RelatedPairIndexStore& store = engine.snapshot()->related_pairs();
    auto prepared = engine.Prepare(query);
    ASSERT_TRUE(prepared.ok());
    ExecContext expired;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    for (int threads : {1, 4}) {
      ScopedExecContext scoped(&expired);
      EXPECT_THROW(store.Acquire(prepared->bound(), kSim,
                                 EnumerationOptions{threads},
                                 &prepared->compiled()),
                   InterruptedError);
    }
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.build_count(), 0u);
    ExpectSameResponse(engine.Explain(*prepared, clean), want,
                       "after deadline");
    EXPECT_EQ(store.build_count(), 1u);
  }
}

TEST_F(RelatedPairIndexTest, ConcurrentFirstUseReturnsIdenticalExplanations) {
  std::vector<Query> queries;
  for (std::size_t skip : {0u, 3u, 6u, 9u}) {
    queries.push_back(Located(
        *tasks_,
        "DESPITE jobID_isSame = T AND inputsize_compare = SIM "
        "AND hostname_isSame = T "
        "OBSERVED duration_compare = LT EXPECTED duration_compare = SIM",
        skip));
  }
  constexpr int kThreads = 8;
  std::vector<ExplainRequest> requests(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    requests[t].evaluate = t % 2 == 0;
    requests[t].seed = 11 + t % 3;
  }
  // The serial answers of an engine per request, each built cold.
  std::vector<Result<ExplainResponse>> want;
  for (int t = 0; t < kThreads; ++t) {
    const Engine serial(*tasks_);
    auto prepared = serial.Prepare(queries[t % queries.size()]);
    ASSERT_TRUE(prepared.ok());
    want.push_back(serial.Explain(*prepared, requests[t]));
    ASSERT_TRUE(want.back().ok());
  }
  for (int round = 0; round < 3; ++round) {
    EngineOptions options;
    options.explainer.threads = 2;
    const Engine engine(*tasks_, options);
    std::vector<PreparedQuery> prepared;
    for (const Query& query : queries) {
      auto one = engine.Prepare(query);
      ASSERT_TRUE(one.ok());
      prepared.push_back(std::move(one).value());
    }
    std::vector<Result<ExplainResponse>> got(
        kThreads, Status::Internal("not run"));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t] = engine.Explain(prepared[t % prepared.size()], requests[t]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ExpectSameResponse(got[t], want[t],
                         StrFormat("round %d thread %d", round, t));
    }
    const RelatedPairIndexStore& store = engine.snapshot()->related_pairs();
    EXPECT_EQ(store.size(), 1u);
    EXPECT_GE(store.build_count(), 1u);
    EXPECT_LE(store.build_count(), static_cast<std::uint64_t>(kThreads));
  }
}

}  // namespace
}  // namespace perfxplain
