#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace px = perfxplain;

namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

/// Owns every thread's buffer, so buffers outlive the threads that filled
/// them and can be read after those threads are joined.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.buffers.push_back(std::make_unique<ThreadBuffer>());
    registry.buffers.back()->thread =
        static_cast<std::uint32_t>(registry.buffers.size());
    registry.buffers.back()->spans.reserve(1 << 12);
    return registry.buffers.back().get();
  }();
  return *buffer;
}

std::atomic<std::uint64_t> next_span_id{1};

// The calling thread's innermost open span.
thread_local std::uint64_t current_span = 0;
thread_local std::uint64_t current_request = 0;
thread_local const char* current_root = "";
thread_local bool current_recording = false;

}  // namespace

std::int64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

ScopedSpan::ScopedSpan(const char* name) : ScopedSpan(name, false, false) {}

ScopedSpan ScopedSpan::Root(const char* name, bool record) {
  return ScopedSpan(name, true, record);
}

ScopedSpan::ScopedSpan(const char* name, bool root, bool record)
    : recording_(root ? record : current_recording),
      saved_current_(current_span),
      saved_request_(current_request),
      saved_root_(current_root),
      saved_recording_(current_recording) {
  if (!recording_) {
    if (root) {
      current_span = 0;
      current_request = 0;
      current_root = "";
      current_recording = false;
    }
    return;
  }
  span_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = root ? 0 : current_span;
  span_.request = root ? span_.id : current_request;
  span_.name = name;
  span_.root = root ? name : current_root;
  current_span = span_.id;
  current_request = span_.request;
  current_root = span_.root;
  current_recording = true;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recording_) {
    span_.end_ns = NowNs();
    ThreadBuffer& buffer = LocalBuffer();
    span_.thread = buffer.thread;
    buffer.spans.push_back(span_);
  }
  current_span = saved_current_;
  current_request = saved_request_;
  current_root = saved_root_;
  current_recording = saved_recording_;
}

std::vector<Span> CollectSpans() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

px::Status WriteSpansJsonl(const std::vector<Span>& spans,
                           const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return px::Status::IoError("cannot write " + path);
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"root\":\"%s\",\"thread\":%u,"
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"bytes\":%lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 span.root, span.thread,
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns) / 1e3,
                 static_cast<long long>(span.bytes));
  }
  if (std::fclose(out) != 0) {
    return px::Status::IoError("cannot write " + path);
  }
  return px::Status::OK();
}

}  // namespace perfbench
