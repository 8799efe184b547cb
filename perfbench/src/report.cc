#include "report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/string_util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace px = perfxplain;

std::optional<double> Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0
                 : std::min(values.size() - 1,
                            static_cast<std::size_t>(rank) - 1);
  return values[index];
}

std::optional<double> Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double RatioOr0(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

bool ResetPeakRss() {
#if defined(__GLIBC__)
  // Hand freed input-generation memory back first, so the high-water mark
  // starts from what the process actually holds.
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

std::optional<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      if (fields >> kib) return kib / 1024.0;
    }
  }
  return std::nullopt;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTimes times;
  if (!(stat >> label) || label != "cpu") return times;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

void AddStealNote(const CpuTimes& before, const CpuTimes& after,
                  Report* report) {
  if (after.total <= before.total) return;
  report->AddNote(px::StrFormat(
      "host steal during the timed phase: %.1f%% of CPU time",
      100.0 * static_cast<double>(after.steal - before.steal) /
          static_cast<double>(after.total - before.total)));
}

namespace {

double CpuMhz() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  double sum = 0.0;
  int count = 0;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("cpu MHz", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    sum += std::atof(line.c_str() + colon + 1);
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += px::StrFormat("\\u%04x", static_cast<unsigned char>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return px::StrFormat("%.17g", value);
}

}  // namespace

Report::Report(std::string workload, std::uint64_t seed, int seconds,
               bool trace)
    : workload_(std::move(workload)),
      seed_(seed),
      seconds_(seconds),
      trace_(trace) {}

void Report::Add(const std::string& name, const std::string& unit,
                 std::optional<double> value, std::size_t samples) {
  metrics_.push_back(Metric{name, unit, value, samples});
}

void Report::AddOutcome(const std::string& kind, std::uint64_t attempted,
                        std::uint64_t failed) {
  outcomes_.push_back(Outcome{kind, attempted, failed});
}

void Report::AddNote(const std::string& note) { notes_.push_back(note); }

std::uint64_t Report::attempted() const {
  std::uint64_t total = 0;
  for (const Outcome& outcome : outcomes_) total += outcome.attempted;
  return total;
}

std::uint64_t Report::failed() const {
  std::uint64_t total = 0;
  for (const Outcome& outcome : outcomes_) total += outcome.failed;
  return total;
}

void Report::Print(std::FILE* out) const {
  const unsigned nproc = std::thread::hardware_concurrency();
  const double mhz = CpuMhz();
  std::fprintf(out,
               "perfbench workload=%s seed=%llu seconds=%d trace=%d\n"
               "host: nproc=%u cpu_mhz=%.0f compiler=%s "
               "libperfxplain_build=%s\n",
               workload_.c_str(), static_cast<unsigned long long>(seed_),
               seconds_, trace_ ? 1 : 0, nproc, mhz, PERFBENCH_COMPILER,
               PERFBENCH_BUILD_TYPE);
  for (const std::string& note : notes_) {
    std::fprintf(out, "note: %s\n", note.c_str());
  }
  for (const Outcome& outcome : outcomes_) {
    std::fprintf(out, "ops %-22s attempted %8llu  failed %llu\n",
                 outcome.kind.c_str(),
                 static_cast<unsigned long long>(outcome.attempted),
                 static_cast<unsigned long long>(outcome.failed));
  }
  const double error_rate = RatioOr0(static_cast<double>(failed()),
                                     static_cast<double>(attempted()));
  std::fprintf(out, "%-36s %14.6g %-6s n=%llu\n", "error_rate", error_rate,
               "ratio", static_cast<unsigned long long>(attempted()));
  for (const Metric& metric : metrics_) {
    if (metric.value.has_value()) {
      std::fprintf(out, "%-36s %14.6g %-6s n=%zu\n", metric.name.c_str(),
                   *metric.value, metric.unit.c_str(), metric.samples);
    } else {
      std::fprintf(out, "%-36s %14s %-6s (not applicable)\n",
                   metric.name.c_str(), "-", metric.unit.c_str());
    }
  }

  std::string json = px::StrFormat(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
      failed() == 0 && attempted() > 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted()),
      static_cast<unsigned long long>(failed()));
  json += "\"context\":{\"workload\":" + JsonString(workload_) +
          px::StrFormat(",\"seed\":%llu,\"seconds\":%d,\"trace\":%d,"
                        "\"nproc\":%u,\"cpu_mhz\":%s,",
                        static_cast<unsigned long long>(seed_), seconds_,
                        trace_ ? 1 : 0, nproc, JsonNumber(mhz).c_str()) +
          "\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
          ",\"libperfxplain_build\":" + JsonString(PERFBENCH_BUILD_TYPE) +
          "},\"outcomes\":{";
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    json += px::StrFormat(
        "%s%s:{\"attempted\":%llu,\"failed\":%llu}", i == 0 ? "" : ",",
        JsonString(outcomes_[i].kind).c_str(),
        static_cast<unsigned long long>(outcomes_[i].attempted),
        static_cast<unsigned long long>(outcomes_[i].failed));
  }
  json += "},\"metrics\":{";
  json += px::StrFormat(
      "\"error_rate\":{\"value\":%s,\"unit\":\"ratio\",\"samples\":%llu}",
      JsonNumber(error_rate).c_str(),
      static_cast<unsigned long long>(attempted()));
  for (const Metric& metric : metrics_) {
    json += "," + JsonString(metric.name) + ":{\"value\":" +
            (metric.value.has_value() ? JsonNumber(*metric.value)
                                      : std::string("null")) +
            ",\"unit\":" + JsonString(metric.unit) +
            px::StrFormat(",\"samples\":%zu}", metric.samples);
  }
  json += "}}";
  std::fprintf(out, "%s\n", json.c_str());
  std::fflush(out);
}

}  // namespace perfbench
