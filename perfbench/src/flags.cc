#include "flags.h"

#include <cerrno>
#include <cstdlib>
#include <map>

namespace perfbench {

const char kUsage[] =
    "usage: perfbench --workload live_jobs|tasks_resident|tasks_lowmem\n"
    "                 --seed N --seconds S --trace 0|1 --out-dir DIR\n";

namespace {

/// Whole-string unsigned decimal; rejects signs, spaces, hex and overflow.
bool ParseUnsigned(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

}  // namespace

std::optional<Flags> ParseFlags(int argc, const char* const* argv,
                                std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    if (name != "--workload" && name != "--seed" && name != "--seconds" &&
        name != "--trace" && name != "--out-dir") {
      *error = "unknown argument '" + name + "'";
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      *error = "flag " + name + " needs a value";
      return std::nullopt;
    }
    if (!values.emplace(name, argv[i + 1]).second) {
      *error = "flag " + name + " given twice";
      return std::nullopt;
    }
    ++i;
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--out-dir"}) {
    if (values.count(required) == 0) {
      *error = std::string("missing required flag ") + required;
      return std::nullopt;
    }
  }

  Flags flags;
  flags.workload = values["--workload"];
  if (flags.workload != "live_jobs" && flags.workload != "tasks_resident" &&
      flags.workload != "tasks_lowmem") {
    *error = "unknown workload '" + flags.workload + "'";
    return std::nullopt;
  }
  if (!ParseUnsigned(values["--seed"], &flags.seed)) {
    *error = "--seed must be an unsigned decimal integer, got '" +
             values["--seed"] + "'";
    return std::nullopt;
  }
  std::uint64_t seconds = 0;
  if (!ParseUnsigned(values["--seconds"], &seconds) || seconds < 1 ||
      seconds > 3600) {
    *error = "--seconds must be an integer in [1, 3600], got '" +
             values["--seconds"] + "'";
    return std::nullopt;
  }
  flags.seconds = static_cast<int>(seconds);
  const std::string& trace = values["--trace"];
  if (trace != "0" && trace != "1") {
    *error = "--trace must be 0 or 1, got '" + trace + "'";
    return std::nullopt;
  }
  flags.trace = trace == "1";
  flags.out_dir = values["--out-dir"];
  if (flags.out_dir.empty()) {
    *error = "--out-dir must not be empty";
    return std::nullopt;
  }
  return flags;
}

}  // namespace perfbench
