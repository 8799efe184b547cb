#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Cumulative CPU time of the whole host from /proc/stat, in ticks.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Notes the share of CPU time the hypervisor stole between two readings:
/// a run slowed by a busy host shows it.
class Report;
void AddStealNote(const CpuTimes& before, const CpuTimes& after,
                  Report* report);

/// Nearest-rank percentile (q in [0, 1]) of `values`; nullopt when empty.
std::optional<double> Percentile(std::vector<double> values, double q);
std::optional<double> Median(std::vector<double> values);
/// `numerator / denominator`, or 0 when the denominator is 0 (a layer that
/// did no work on this workload).
double RatioOr0(double numerator, double denominator);

/// Resets the kernel's peak-RSS high-water mark (VmHWM); false when the
/// kernel refuses.
bool ResetPeakRss();
/// VmHWM in MiB; nullopt when /proc is unavailable.
std::optional<double> PeakRssMb();

/// Everything one run measured: named metrics with units and sample
/// counts, operation outcomes, and the host context. Printed as readable
/// lines followed by one JSON object on the last line.
class Report {
 public:
  Report(std::string workload, std::uint64_t seed, int seconds, bool trace);

  /// `value` nullopt = not applicable on this workload.
  void Add(const std::string& name, const std::string& unit,
           std::optional<double> value, std::size_t samples);
  /// Operations of one kind: how many were attempted and how many failed
  /// (error status, oracle mismatch, lost acknowledged write).
  void AddOutcome(const std::string& kind, std::uint64_t attempted,
                  std::uint64_t failed);
  void AddNote(const std::string& note);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  void Print(std::FILE* out) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    std::optional<double> value;
    std::size_t samples = 0;
  };
  struct Outcome {
    std::string kind;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };

  std::string workload_;
  std::uint64_t seed_;
  int seconds_;
  bool trace_;
  std::vector<Metric> metrics_;
  std::vector<Outcome> outcomes_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
