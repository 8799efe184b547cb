#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/string_util.h"
#include "core/pair_enumeration.h"
#include "features/pair_features.h"
#include "log/columnar.h"
#include "pxql/compiled_predicate.h"
#include "trace.h"

namespace perfbench {

namespace px = perfxplain;

px::Result<std::vector<std::string>> PickPairsOfInterest(
    const px::ExecutionLog& log, const px::Query& query, std::size_t count) {
  const px::PairSchema schema(log.schema());
  px::Query bound = query;
  PX_RETURN_IF_ERROR(bound.Bind(schema));
  const px::ColumnarLog columns(log);
  const px::CompiledQuery compiled =
      px::CompiledQuery::Compile(bound, schema, columns);
  px::EnumerationOptions enumeration;
  enumeration.threads = 1;
  std::vector<px::PairRef> observed;
  for (const px::PairRef& pair : px::CollectRelatedPairs(
           columns, compiled, px::PairFeatureOptions().sim_fraction,
           enumeration)) {
    if (pair.observed) observed.push_back(pair);
  }
  if (observed.size() < count) {
    return px::Status::FailedPrecondition(px::StrFormat(
        "only %zu pairs satisfy the query, need %zu", observed.size(),
        count));
  }
  const std::size_t stride = observed.size() / count;
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < count; ++i) {
    const px::PairRef& pair = observed[i * stride + stride / 2];
    px::Query with_ids = query;
    with_ids.first_id = log.at(pair.first).id;
    with_ids.second_id = log.at(pair.second).id;
    pool.push_back(with_ids.ToString());
  }
  return pool;
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameTrace(const std::vector<px::ExplanationAtom>& a,
               const std::vector<px::ExplanationAtom>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].atom == b[i].atom) ||
        !SameBits(a[i].info_gain, b[i].info_gain) ||
        !SameBits(a[i].metric_after, b[i].metric_after) ||
        !SameBits(a[i].generality_after, b[i].generality_after) ||
        !SameBits(a[i].score, b[i].score)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SameResult(const px::ExplainResponse& a, const px::ExplainResponse& b) {
  if (a.technique != b.technique ||
      !(a.explanation.despite == b.explanation.despite) ||
      !(a.explanation.because == b.explanation.because) ||
      !SameTrace(a.explanation.despite_trace, b.explanation.despite_trace) ||
      !SameTrace(a.explanation.because_trace, b.explanation.because_trace) ||
      a.metrics.has_value() != b.metrics.has_value()) {
    return false;
  }
  if (!a.metrics.has_value()) return true;
  const px::ExplanationMetrics& x = *a.metrics;
  const px::ExplanationMetrics& y = *b.metrics;
  return SameBits(x.relevance, y.relevance) &&
         SameBits(x.precision, y.precision) &&
         SameBits(x.generality, y.generality) &&
         x.pairs_despite == y.pairs_despite &&
         x.pairs_despite_exp == y.pairs_despite_exp &&
         x.pairs_because == y.pairs_because &&
         x.pairs_because_obs == y.pairs_because_obs;
}

px::EngineOptions ColdSingleThreadedOptions() {
  px::EngineOptions options;
  options.explainer.threads = 1;
  options.sim_but_diff.threads = 1;
  options.sim_but_diff.pair_code_budget_bytes = 0;
  options.rule_of_thumb.relief.threads = 1;
  return options;
}

void ParallelFor(std::size_t n, int workers,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(work);
  work();
  for (std::thread& thread : threads) thread.join();
}

px::Technique DrawTechnique(px::Rng& rng, const int (&weights)[3]) {
  const std::int64_t total = weights[0] + weights[1] + weights[2];
  const std::int64_t draw = rng.UniformInt(0, total - 1);
  if (draw < weights[0]) return px::Technique::kPerfXplain;
  if (draw < weights[0] + weights[1]) return px::Technique::kSimButDiff;
  return px::Technique::kRuleOfThumb;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  double sum = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    sum += 1.0 / std::pow(static_cast<double>(rank), exponent);
    cdf_.push_back(sum);
  }
  for (double& value : cdf_) value /= sum;
}

std::size_t ZipfSampler::Draw(px::Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

void SleepUntilNs(std::int64_t deadline_ns) {
  const std::int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

void SpinUntilNs(std::int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace perfbench
