// perfbench: the end-to-end serving benchmark. One process runs one
// workload; see perfbench/README.md for the workloads and metrics.

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common.h"
#include "flags.h"
#include "report.h"

int main(int argc, char** argv) {
  namespace pb = perfbench;
  std::string error;
  const std::optional<pb::Flags> flags = pb::ParseFlags(argc, argv, &error);
  if (!flags.has_value()) {
    std::fprintf(stderr, "perfbench: %s\n%s", error.c_str(), pb::kUsage);
    return 2;
  }
  std::error_code created;
  std::filesystem::create_directories(flags->out_dir, created);
  if (created) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 flags->out_dir.c_str(), created.message().c_str());
    return 1;
  }
  pb::Report report(flags->workload, flags->seed, flags->seconds,
                    flags->trace);
  const perfxplain::Status status = flags->workload == "live_jobs"
                                        ? pb::RunLiveJobs(*flags, &report)
                                        : pb::RunTasks(*flags, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  report.Print(stdout);
  return 0;
}
