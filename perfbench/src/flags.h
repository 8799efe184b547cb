#ifndef PERFBENCH_FLAGS_H_
#define PERFBENCH_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

/// The benchmark's command line. Every flag is required, given once, as
/// `--name value`; anything else is an error (never silently ignored).
struct Flags {
  std::string workload;  ///< live_jobs | tasks_resident | tasks_lowmem
  std::uint64_t seed = 0;
  int seconds = 0;       ///< length of the timed phase, 1..3600
  bool trace = false;    ///< --trace 1: the traced run with layer probes
  std::string out_dir;   ///< where span and counter artifacts are written
};

/// Parses argv strictly. On any unknown, repeated, missing or malformed
/// flag returns nullopt and sets `error`.
std::optional<Flags> ParseFlags(int argc, const char* const* argv,
                                std::string* error);

extern const char kUsage[];

}  // namespace perfbench

#endif  // PERFBENCH_FLAGS_H_
