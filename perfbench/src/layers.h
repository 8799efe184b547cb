#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "report.h"

namespace perfbench {

/// Client-side latencies of one run's completed explains.
struct ClientLatencies {
  std::vector<double> all_ms;
  std::vector<double> by_technique_ms[3];
  std::vector<double> traced_ms;    ///< requests in the traced windows
  std::vector<double> untraced_ms;  ///< the others

  void Add(perfxplain::Technique technique, double ms, bool traced);
};

/// Adds the end-to-end metrics every workload reports: setup_s,
/// explain_qps, explain_p50_ms, explain_p99_ms, perfxplain_p50_ms,
/// simbutdiff_p50_ms and peak_rss_mb.
void AddServingMetrics(const std::vector<double>& setup_s,
                       const ClientLatencies& latencies,
                       double timed_seconds,
                       std::optional<double> peak_rss_mb, Report* report);

/// Per-layer numbers read off the responses the engine computed. Cache
/// hits are left out: they did no engine work.
struct ResponseTally {
  std::vector<double> engine_ms[3];  ///< ExplainResponse::explain_ms
  std::vector<double> evaluate_ms;
  std::uint64_t simbutdiff = 0;  ///< SimButDiff responses
  std::uint64_t store_hits = 0;  ///< ... served from the resident plane
  std::uint64_t tile_hits = 0;
  std::uint64_t tile_misses = 0;
  std::uint64_t tile_evictions = 0;

  void Add(const perfxplain::ExplainResponse& response);
  void Merge(const ResponseTally& other);
};

/// The traced run's layer probes, run after the timed phase on `engine`'s
/// snapshot with its thread counts: pair enumeration (DeriveSelection +
/// ScanRelatedPairs per pool query), RReliefF ranking, and a cold
/// pair-code store acquisition at the engine's budget. Adds those metrics
/// and the response-derived ones of `tally` (engine, ml, pair store, tile
/// pool) to `report`.
void ProbeLayers(const perfxplain::Engine& engine,
                 const std::vector<std::string>& pool,
                 const ResponseTally& tally, Report* report);

/// Adds trace.overhead_ratio (traced over untraced median client latency,
/// from one run's interleaved windows) and trace.spans, and writes the
/// run's spans to `<out_dir>/spans-<workload>-<seed>.jsonl`.
perfxplain::Status FinishTrace(const ClientLatencies& latencies,
                               const std::string& out_dir,
                               const std::string& workload,
                               std::uint64_t seed, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
