#include "layers.h"

#include "common.h"
#include "common/string_util.h"
#include "core/pair_enumeration.h"
#include "log/catalog.h"
#include "ml/relief.h"
#include "trace.h"

namespace perfbench {

namespace px = perfxplain;

void ClientLatencies::Add(px::Technique technique, double ms, bool traced) {
  all_ms.push_back(ms);
  by_technique_ms[TechniqueIndex(technique)].push_back(ms);
  (traced ? traced_ms : untraced_ms).push_back(ms);
}

void AddServingMetrics(const std::vector<double>& setup_s,
                       const ClientLatencies& latencies,
                       double timed_seconds,
                       std::optional<double> peak_rss_mb, Report* report) {
  const std::vector<double>& perfxplain_ms =
      latencies.by_technique_ms[TechniqueIndex(px::Technique::kPerfXplain)];
  const std::vector<double>& simbutdiff_ms =
      latencies.by_technique_ms[TechniqueIndex(px::Technique::kSimButDiff)];
  const std::size_t explains = latencies.all_ms.size();
  report->Add("setup_s", "s", Median(setup_s), setup_s.size());
  report->Add("explain_qps", "1/s",
              static_cast<double>(explains) / timed_seconds, explains);
  report->Add("explain_p50_ms", "ms", Median(latencies.all_ms), explains);
  report->Add("explain_p99_ms", "ms", Percentile(latencies.all_ms, 0.99),
              explains);
  report->Add("perfxplain_p50_ms", "ms", Median(perfxplain_ms),
              perfxplain_ms.size());
  report->Add("simbutdiff_p50_ms", "ms", Median(simbutdiff_ms),
              simbutdiff_ms.size());
  report->Add("peak_rss_mb", "MB", peak_rss_mb, 1);
}

void ResponseTally::Add(const px::ExplainResponse& response) {
  if (response.result_cache_hit) return;
  engine_ms[TechniqueIndex(response.technique)].push_back(
      response.explain_ms);
  if (response.metrics.has_value()) {
    evaluate_ms.push_back(response.evaluate_ms);
  }
  if (response.technique == px::Technique::kSimButDiff) {
    ++simbutdiff;
    store_hits += response.pair_store_hit ? 1 : 0;
    tile_hits += response.tile_hits;
    tile_misses += response.tile_misses;
    tile_evictions += response.tile_evictions;
  }
}

void ResponseTally::Merge(const ResponseTally& other) {
  for (int t = 0; t < 3; ++t) {
    engine_ms[t].insert(engine_ms[t].end(), other.engine_ms[t].begin(),
                        other.engine_ms[t].end());
  }
  evaluate_ms.insert(evaluate_ms.end(), other.evaluate_ms.begin(),
                     other.evaluate_ms.end());
  simbutdiff += other.simbutdiff;
  store_hits += other.store_hits;
  tile_hits += other.tile_hits;
  tile_misses += other.tile_misses;
  tile_evictions += other.tile_evictions;
}

void ProbeLayers(const px::Engine& engine,
                 const std::vector<std::string>& pool,
                 const ResponseTally& tally, Report* report) {
  const px::LogSnapshot& snapshot = *engine.snapshot();
  const px::EngineOptions& options = engine.options();
  const std::size_t n = snapshot.log().size();
  const double all_pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  const double sim = options.explainer.pair.sim_fraction;
  px::EnumerationOptions enumeration;
  enumeration.threads = options.explainer.threads;

  std::vector<double> scan_ms;
  std::vector<double> candidates;
  std::vector<double> selected_ratio;
  std::vector<double> related_ratio;
  for (const std::string& pxql : pool) {
    px::Result<px::PreparedQuery> prepared = engine.PrepareText(pxql);
    if (!prepared.ok()) {
      report->AddOutcome("probe_prepare", 1, 1);
      continue;
    }
    auto root = ScopedSpan::Root("probe.pair_enum", true);
    const std::int64_t start = NowNs();
    px::PairSelection selection;
    {
      ScopedSpan span("pair_enum.select");
      selection = prepared->compiled().despite.DeriveSelection(n);
    }
    px::RelatedPairScan scan;
    {
      ScopedSpan span("pair_enum.scan");
      scan = px::ScanRelatedPairs(snapshot.columns(), prepared->compiled(),
                                  sim, enumeration);
    }
    scan_ms.push_back(NsToMs(NowNs() - start));
    const double candidate =
        selection.constrained
            ? static_cast<double>(selection.first_rows.size()) *
                  static_cast<double>(selection.second_rows.size())
            : all_pairs;
    candidates.push_back(candidate);
    selected_ratio.push_back(candidate / all_pairs);
    related_ratio.push_back(
        RatioOr0(static_cast<double>(scan.counts.total()), candidate));
  }

  std::vector<double> rank_ms;
  const std::size_t target =
      snapshot.log().schema().IndexOf(px::feature_names::kDuration);
  for (int rep = 0; rep < 3; ++rep) {
    auto root = ScopedSpan::Root("probe.relief", true);
    px::Rng rng(options.rule_of_thumb.seed);
    const std::int64_t start = NowNs();
    px::RankFeaturesByImportance(snapshot.columns(), target,
                                 options.rule_of_thumb.relief, rng);
    rank_ms.push_back(NsToMs(NowNs() - start));
  }

  const std::size_t budget = options.sim_but_diff.pair_code_budget_bytes;
  double build_ms = 0.0;
  {
    const px::LogSnapshot cold(snapshot.log());
    auto root = ScopedSpan::Root("probe.pair_store_build", true);
    const std::int64_t start = NowNs();
    cold.pair_codes().Acquire(options.sim_but_diff.pair.sim_fraction, budget,
                              options.sim_but_diff.threads);
    build_ms = NsToMs(NowNs() - start);
  }

  const std::vector<double>& perfxplain_ms =
      tally.engine_ms[TechniqueIndex(px::Technique::kPerfXplain)];
  const std::vector<double>& simbutdiff_ms =
      tally.engine_ms[TechniqueIndex(px::Technique::kSimButDiff)];
  const std::vector<double>& ruleofthumb_ms =
      tally.engine_ms[TechniqueIndex(px::Technique::kRuleOfThumb)];
  const std::optional<double> perfxplain_median = Median(perfxplain_ms);
  const std::optional<double> scan_median = Median(scan_ms);
  report->Add("engine.perfxplain_ms", "ms", perfxplain_median,
              perfxplain_ms.size());
  report->Add("engine.simbutdiff_ms", "ms", Median(simbutdiff_ms),
              simbutdiff_ms.size());
  report->Add("engine.ruleofthumb_ms", "ms", Median(ruleofthumb_ms),
              ruleofthumb_ms.size());
  report->Add("engine.evaluate_ms", "ms", Median(tally.evaluate_ms),
              tally.evaluate_ms.size());
  report->Add("pair_enum.scan_ms", "ms", scan_median, scan_ms.size());
  report->Add("pair_enum.candidate_pairs", "count", Median(candidates),
              candidates.size());
  report->Add("pair_enum.selected_ratio", "ratio", Median(selected_ratio),
              selected_ratio.size());
  report->Add("pair_enum.related_ratio", "ratio", Median(related_ratio),
              related_ratio.size());
  std::optional<double> clause_ms;
  if (perfxplain_median && scan_median) {
    clause_ms = *perfxplain_median - *scan_median;
  }
  report->Add("ml.clause_ms", "ms", clause_ms, perfxplain_ms.size());
  report->Add("relief.rank_ms", "ms", Median(rank_ms), rank_ms.size());
  report->Add("pair_store.build_ms", "ms", build_ms, 1);
  report->Add("pair_store.hit_ratio", "ratio",
              RatioOr0(static_cast<double>(tally.store_hits),
                       static_cast<double>(tally.simbutdiff)),
              tally.simbutdiff);
  report->Add("pair_store.resident_mb", "MB",
              static_cast<double>(
                  snapshot.pair_codes().ResidentBytesFor(budget)) /
                  1048576.0,
              1);
  const std::uint64_t tile_fetches = tally.tile_hits + tally.tile_misses;
  report->Add("tile_pool.hit_ratio", "ratio",
              RatioOr0(static_cast<double>(tally.tile_hits),
                       static_cast<double>(tile_fetches)),
              tile_fetches);
  report->Add("tile_pool.misses_per_req", "count",
              RatioOr0(static_cast<double>(tally.tile_misses),
                       static_cast<double>(tally.simbutdiff)),
              tally.simbutdiff);
  report->Add("tile_pool.evictions_per_req", "count",
              RatioOr0(static_cast<double>(tally.tile_evictions),
                       static_cast<double>(tally.simbutdiff)),
              tally.simbutdiff);
}

px::Status FinishTrace(const ClientLatencies& latencies,
                       const std::string& out_dir,
                       const std::string& workload, std::uint64_t seed,
                       Report* report) {
  const std::optional<double> traced = Median(latencies.traced_ms);
  const std::optional<double> untraced = Median(latencies.untraced_ms);
  std::optional<double> overhead;
  if (traced && untraced) overhead = *traced / *untraced;
  report->Add("trace.overhead_ratio", "ratio", overhead,
              latencies.traced_ms.size());
  const std::vector<Span> spans = CollectSpans();
  report->Add("trace.spans", "count", static_cast<double>(spans.size()),
              spans.size());
  return WriteSpansJsonl(
      spans, px::StrFormat("%s/spans-%s-%llu.jsonl", out_dir.c_str(),
                           workload.c_str(),
                           static_cast<unsigned long long>(seed)));
}

}  // namespace perfbench
