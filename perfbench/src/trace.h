#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t NowNs();

/// One recorded interval around a call into a layer. Spans of one request
/// share `request` (the id of the request's root span); `root` names that
/// root span so layer costs can be attributed to the operation that caused
/// them (an fsync under "append" vs. under "rotate").
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< id of the root span
  const char* name = "";      ///< static storage
  const char* root = "";      ///< static storage
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t bytes = -1;    ///< payload size where the layer has one

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Records a span from construction to destruction. A root span records
/// only when asked to; a child span records exactly when the calling
/// thread's innermost open span does, so one decision per request (traced
/// window or not) covers every layer beneath it. Spans are appended to a
/// per-thread buffer without locking and kept in memory until
/// CollectSpans. `name` must have static storage duration.
class ScopedSpan {
 public:
  /// A child of the thread's current span (no-op when that is unrecorded
  /// or when there is none).
  explicit ScopedSpan(const char* name);
  /// A root span, i.e. a new request.
  static ScopedSpan Root(const char* name, bool record);

  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  void set_bytes(std::int64_t bytes) { span_.bytes = bytes; }
  /// This span's id; 0 when it is not recorded.
  std::uint64_t id() const { return span_.id; }

 private:
  ScopedSpan(const char* name, bool root, bool record);

  bool recording_ = false;
  Span span_;
  std::uint64_t saved_current_ = 0;
  std::uint64_t saved_request_ = 0;
  const char* saved_root_ = "";
  bool saved_recording_ = false;
};

/// Every span recorded so far, ordered by start time. Call only after all
/// threads that recorded spans have been joined.
std::vector<Span> CollectSpans();

/// Writes spans as JSON lines (one object per span, times in
/// microseconds).
perfxplain::Status WriteSpansJsonl(const std::vector<Span>& spans,
                                   const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
