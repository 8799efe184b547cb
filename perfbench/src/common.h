#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/engine.h"
#include "flags.h"
#include "log/execution_log.h"
#include "pxql/query.h"
#include "report.h"

namespace perfbench {

/// A workload's request pool: the PXQL text of `query` (unbound, without
/// ids) for `count` pairs of interest — ordered pairs that satisfy des AND
/// obs, so Definition 1 holds for PerfXplain — taken at an even stride
/// through the row-major list of such pairs.
perfxplain::Result<std::vector<std::string>> PickPairsOfInterest(
    const perfxplain::ExecutionLog& log, const perfxplain::Query& query,
    std::size_t count);

/// True when two responses carry the same result: technique, both
/// clauses, every per-atom diagnostic and the evaluation metrics, doubles
/// compared bit for bit. Timings, snapshot ids and cache/tile counters are
/// not compared (they legitimately differ). Allocation-free, so readers
/// can check responses as they arrive.
bool SameResult(const perfxplain::ExplainResponse& a,
                const perfxplain::ExplainResponse& b);

/// Options of the oracle engine: every thread count 1, no result cache,
/// and no pair-code residency, so each check runs the streaming path that
/// neither served configuration uses.
perfxplain::EngineOptions ColdSingleThreadedOptions();

/// Runs fn(i) for i in [0, n) on `workers` threads (work-stealing by
/// index) and joins them all.
void ParallelFor(std::size_t n, int workers,
                 const std::function<void(std::size_t)>& fn);

/// Draws a technique from integer weights {PerfXplain, SimButDiff,
/// RuleOfThumb}.
perfxplain::Technique DrawTechnique(perfxplain::Rng& rng,
                                    const int (&weights)[3]);

/// Zipf(s) over ranks 0..n-1 (rank 0 the most popular).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);
  std::size_t Draw(perfxplain::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Sleeps until `deadline_ns` on the NowNs clock (returns at once if past).
void SleepUntilNs(std::int64_t deadline_ns);
/// Busy-waits until `deadline_ns`, keeping the calling thread on its CPU.
void SpinUntilNs(std::int64_t deadline_ns);

double NsToMs(std::int64_t ns);

/// Index of a technique in per-technique arrays.
inline std::size_t TechniqueIndex(perfxplain::Technique technique) {
  return static_cast<std::size_t>(technique);
}

/// Workload entry points. Each generates its inputs from the seed, runs
/// setup and the timed phase, checks every output, and fills `report`.
perfxplain::Status RunLiveJobs(const Flags& flags, Report* report);
perfxplain::Status RunTasks(const Flags& flags, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
