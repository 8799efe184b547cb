#include "core/pair_enumeration.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

namespace perfxplain {

namespace {

std::atomic<int> g_default_threads{0};

}  // namespace

void ForEachOrderedPair(
    const ExecutionLog& log, const PairSchema& schema,
    const PairFeatureOptions& options,
    const std::function<bool(std::size_t, std::size_t,
                             const PairFeatureView&)>& fn) {
  ForEachOrderedPair<const std::function<bool(
      std::size_t, std::size_t, const PairFeatureView&)>&>(log, schema,
                                                           options, fn);
}

PairLabel ClassifyPair(const Query& bound_query, const PairFeatureView& view) {
  if (!bound_query.despite.Eval(view)) return PairLabel::kUnrelated;
  if (bound_query.observed.Eval(view)) return PairLabel::kObserved;
  if (bound_query.expected.Eval(view)) return PairLabel::kExpected;
  return PairLabel::kUnrelated;
}

PairLabel ClassifyPairCompiled(const CompiledQuery& query, std::size_t i,
                               std::size_t j, double sim_fraction) {
  if (!query.despite.Eval(i, j, sim_fraction)) {
    return PairLabel::kUnrelated;
  }
  if (query.observed.Eval(i, j, sim_fraction)) {
    return PairLabel::kObserved;
  }
  if (query.expected.Eval(i, j, sim_fraction)) {
    return PairLabel::kExpected;
  }
  return PairLabel::kUnrelated;
}

CandidatePairs::CandidatePairs(const CompiledPredicate& despite,
                               std::size_t rows, bool prune) {
  if (prune) selection_ = despite.DeriveSelection(rows);
  if (!selection_.constrained) {
    selection_.first_rows.resize(rows);
    std::iota(selection_.first_rows.begin(), selection_.first_rows.end(),
              0u);
    selection_.second_rows = selection_.first_rows;
  }
}

std::size_t CandidatePairs::bytes() const {
  return (selection_.first_rows.capacity() +
          selection_.second_rows.capacity() + selection_.group_of.capacity() +
          selection_.group_begin.capacity() +
          selection_.group_rows.capacity()) *
         sizeof(std::uint32_t);
}

void SetDefaultEnumerationThreads(int threads) {
  g_default_threads.store(threads < 0 ? 0 : threads);
}

int ResolveEnumerationThreads(const EnumerationOptions& options) {
  int threads = options.threads;
  if (threads <= 0) threads = g_default_threads.load();
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return threads <= 0 ? 1 : threads;
}

RelatedCounts CountRelatedPairs(const ExecutionLog& log,
                                const PairSchema& schema,
                                const Query& bound_query,
                                const PairFeatureOptions& options) {
  const ColumnarLog columns(log);
  const CompiledQuery compiled =
      CompiledQuery::Compile(bound_query, schema, columns);
  return CountRelatedPairs(columns, compiled, options.sim_fraction);
}

RelatedCounts CountRelatedPairs(const ColumnarLog& columns,
                                const CompiledQuery& query,
                                double sim_fraction,
                                const EnumerationOptions& enumeration) {
  const std::size_t n = columns.rows();
  // A pair failing des (or satisfying neither obs nor exp) is unrelated, so
  // an always-false despite clause relates nothing.
  if (query.despite.always_false()) return RelatedCounts{};
  std::vector<RelatedCounts> partial;
  ScanDespitePairs(query.despite, n, enumeration, partial,
                   [&](RelatedCounts& local, std::size_t i, std::size_t j) {
                     switch (ClassifyPairCompiled(query, i, j,
                                                  sim_fraction)) {
                       case PairLabel::kObserved:
                         ++local.observed;
                         break;
                       case PairLabel::kExpected:
                         ++local.expected;
                         break;
                       case PairLabel::kUnrelated:
                         break;
                     }
                   });
  RelatedCounts counts;
  for (const RelatedCounts& local : partial) {
    counts.observed += local.observed;
    counts.expected += local.expected;
  }
  return counts;
}

std::vector<PairRef> CollectRelatedPairs(const ColumnarLog& columns,
                                         const CompiledQuery& query,
                                         double sim_fraction,
                                         const EnumerationOptions&
                                             enumeration) {
  const std::size_t n = columns.rows();
  if (query.despite.always_false()) return {};
  std::vector<std::vector<PairRef>> partial;
  ScanDespitePairs(query.despite, n, enumeration, partial,
                   [&](std::vector<PairRef>& local, std::size_t i,
                       std::size_t j) {
                     const PairLabel label = ClassifyPairCompiled(
                         query, i, j, sim_fraction);
                     if (label == PairLabel::kUnrelated) return;
                     local.push_back({i, j,
                                      label == PairLabel::kObserved});
                   });
  // Stripes cover ascending row ranges, so concatenating them in block
  // order reproduces the row-major enumeration order exactly.
  std::size_t total = 0;
  for (const auto& local : partial) total += local.size();
  std::vector<PairRef> related;
  related.reserve(total);
  for (auto& local : partial) {
    related.insert(related.end(), local.begin(), local.end());
  }
  return related;
}

RelatedPairScan ScanRelatedPairs(const ColumnarLog& columns,
                                 const CompiledQuery& query,
                                 double sim_fraction,
                                 const EnumerationOptions& enumeration) {
  // One parallel pass produces the §4.3 label counts and, while the total
  // stays under the buffer cap, the related pairs themselves. A broad
  // despite clause that relates almost every ordered pair overflows the
  // cap; the buffers are then discarded and callers fall back to a second,
  // streaming draw scan, keeping memory O(accepted).
  const std::size_t n = columns.rows();
  const std::size_t cap = enumeration.sample_buffer_cap;
  // Stripes publish their buffered-pair counts to the shared total in
  // batches, so a scan where most candidates are related does not bounce
  // one cache line between workers per pair. The published total never
  // exceeds the true one, so buffering stops only on a real overflow, and
  // at most kPublishEvery - 1 pairs per stripe are buffered past the cap.
  constexpr std::size_t kPublishEvery = 1024;
  struct StripeState {
    RelatedCounts counts;
    std::vector<PairRef> pairs;
    std::size_t unpublished = 0;
  };
  std::vector<StripeState> partial;
  std::atomic<std::size_t> published{0};
  std::atomic<bool> overflow{cap == 0};
  if (!query.despite.always_false()) {
    ScanDespitePairs(
        query.despite, n, enumeration, partial,
        [&](StripeState& local, std::size_t i, std::size_t j) {
          const PairLabel label =
              ClassifyPairCompiled(query, i, j, sim_fraction);
          if (label == PairLabel::kUnrelated) return;
          const bool observed = label == PairLabel::kObserved;
          if (observed) {
            ++local.counts.observed;
          } else {
            ++local.counts.expected;
          }
          if (overflow.load(std::memory_order_relaxed)) return;
          local.pairs.push_back({i, j, observed});
          if (++local.unpublished == kPublishEvery) {
            local.unpublished = 0;
            if (published.fetch_add(kPublishEvery,
                                    std::memory_order_relaxed) +
                    kPublishEvery >
                cap) {
              overflow.store(true, std::memory_order_relaxed);
            }
          }
        });
  }
  RelatedPairScan scan;
  for (const StripeState& local : partial) {
    scan.counts.observed += local.counts.observed;
    scan.counts.expected += local.counts.expected;
  }
  scan.overflowed = cap == 0 || scan.counts.total() > cap;
  if (!scan.overflowed) {
    // Stripes ascend, so concatenating the buffers in stripe order is the
    // row-major order the draw replay needs.
    scan.related.reserve(scan.counts.total());
    for (StripeState& local : partial) {
      scan.related.insert(scan.related.end(), local.pairs.begin(),
                          local.pairs.end());
    }
  }
  return scan;
}

AcceptanceProbabilities ComputeAcceptance(
    const RelatedCounts& counts, const SamplerOptions& sampler_options,
    bool balanced) {
  const double m = static_cast<double>(sampler_options.sample_size);
  AcceptanceProbabilities p;
  if (balanced) {
    p.observed =
        counts.observed == 0
            ? 0.0
            : std::min(1.0, m / (2.0 * static_cast<double>(counts.observed)));
    p.expected =
        counts.expected == 0
            ? 0.0
            : std::min(1.0,
                       m / (2.0 * static_cast<double>(counts.expected)));
  } else {
    const double uniform =
        std::min(1.0, m / static_cast<double>(counts.total()));
    p.observed = uniform;
    p.expected = uniform;
  }
  return p;
}

Result<std::vector<PairRef>> ReplaySampleDraws(
    const RelatedPairScan& scan, std::size_t rows, std::size_t poi_first,
    std::size_t poi_second, const SamplerOptions& sampler_options, Rng& rng,
    bool balanced) {
  PX_CHECK(!scan.overflowed);
  if (poi_first >= rows || poi_second >= rows || poi_first == poi_second) {
    return Status::InvalidArgument("pair of interest indexes out of range");
  }
  const RelatedCounts& counts = scan.counts;
  if (counts.total() == 0) {
    return Status::FailedPrecondition(
        "no pairs in the log are related to the query");
  }
  const AcceptanceProbabilities p =
      ComputeAcceptance(counts, sampler_options, balanced);

  // The acceptance draws happen serially in row-major related-pair order
  // (one Bernoulli per related pair except the pair of interest) — exactly
  // the draw sequence of the legacy two-pass enumeration, for any thread
  // count, any pruning decision, and either memory strategy.
  std::vector<PairRef> sampled;
  sampled.reserve(std::min<std::size_t>(
      sampler_options.sample_size + 1, counts.total() + 1));
  sampled.push_back({poi_first, poi_second, true});
  for (const PairRef& pair : scan.related) {
    if (pair.first == poi_first && pair.second == poi_second) continue;
    if (!rng.Bernoulli(pair.observed ? p.observed : p.expected)) {
      continue;
    }
    sampled.push_back(pair);
  }
  return sampled;
}

Result<std::vector<PairRef>> SampleRelatedPairs(
    const ColumnarLog& columns, const CompiledQuery& query,
    std::size_t poi_first, std::size_t poi_second, double sim_fraction,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced,
    const EnumerationOptions& enumeration) {
  const std::size_t n = columns.rows();
  if (poi_first >= n || poi_second >= n || poi_first == poi_second) {
    return Status::InvalidArgument("pair of interest indexes out of range");
  }
  RelatedPairScan scan =
      ScanRelatedPairs(columns, query, sim_fraction, enumeration);
  if (!scan.overflowed) {
    return ReplaySampleDraws(scan, n, poi_first, poi_second, sampler_options,
                             rng, balanced);
  }
  if (scan.counts.total() == 0) {
    return Status::FailedPrecondition(
        "no pairs in the log are related to the query");
  }
  const AcceptanceProbabilities p =
      ComputeAcceptance(scan.counts, sampler_options, balanced);
  // Streaming second pass: the related pairs did not fit the buffer, so
  // the draws run against a fresh serial enumeration. Candidate pruning
  // keeps the surviving pairs and their order unchanged (pruned pairs are
  // unrelated and consume no draw), so the sampled set matches the
  // unpruned scan bit for bit.
  std::vector<PairRef> sampled;
  sampled.reserve(sampler_options.sample_size + 1);
  sampled.push_back({poi_first, poi_second, true});
  const CandidatePairs candidates(query.despite, n, enumeration.prune);
  for (std::uint32_t i : candidates.first_rows()) {
    ThrowIfInterrupted();
    for (std::uint32_t j : candidates.partners(i)) {
      if (i == j) continue;
      if (i == poi_first && j == poi_second) continue;
      const PairLabel label = ClassifyPairCompiled(query, i, j, sim_fraction);
      if (label == PairLabel::kUnrelated) continue;
      const bool observed = label == PairLabel::kObserved;
      if (!rng.Bernoulli(observed ? p.observed : p.expected)) continue;
      sampled.push_back({i, j, observed});
    }
  }
  return sampled;
}

Result<std::vector<TrainingExample>> BuildTrainingExamples(
    const ExecutionLog& log, const PairSchema& schema,
    const Query& bound_query, std::size_t poi_first, std::size_t poi_second,
    const PairFeatureOptions& pair_options,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced) {
  const ColumnarLog columns(log);
  const CompiledQuery compiled =
      CompiledQuery::Compile(bound_query, schema, columns);
  auto sampled = SampleRelatedPairs(columns, compiled, poi_first, poi_second,
                                    pair_options.sim_fraction,
                                    sampler_options, rng, balanced);
  if (!sampled.ok()) return sampled.status();

  std::vector<TrainingExample> examples;
  examples.reserve(sampled->size());
  for (const PairRef& pair : *sampled) {
    PairFeatureView view(&schema, &log.at(pair.first), &log.at(pair.second),
                         &pair_options);
    TrainingExample example;
    example.first = pair.first;
    example.second = pair.second;
    example.observed = pair.observed;
    example.features = view.Materialize();
    examples.push_back(std::move(example));
  }
  return examples;
}

Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ExecutionLog& log, const PairSchema& schema,
    const Query& bound_query, const PairFeatureOptions& options,
    std::size_t skip) {
  const ColumnarLog columns(log);
  const CompiledQuery compiled =
      CompiledQuery::Compile(bound_query, schema, columns);
  return FindPairOfInterest(columns, compiled, options.sim_fraction, skip);
}

Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ColumnarLog& columns, const CompiledQuery& query,
    double sim_fraction, std::size_t skip) {
  const std::size_t n = columns.rows();
  std::size_t remaining = skip;
  if (!query.despite.always_false()) {
    // Candidate pruning preserves the row-major order of matching pairs
    // (pruned pairs fail des), so `skip` counts the same sequence.
    const CandidatePairs candidates(query.despite, n, /*prune=*/true);
    for (std::uint32_t i : candidates.first_rows()) {
      ThrowIfInterrupted();
      for (std::uint32_t j : candidates.partners(i)) {
        if (i == j) continue;
        if (ClassifyPairCompiled(query, i, j, sim_fraction) !=
            PairLabel::kObserved) {
          continue;
        }
        if (remaining == 0) return std::pair<std::size_t, std::size_t>(i, j);
        --remaining;
      }
    }
  }
  return Status::NotFound(
      "no pair in the log satisfies DESPITE and OBSERVED");
}

}  // namespace perfxplain
