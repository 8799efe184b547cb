#ifndef PERFBENCH_TRACED_FS_H_
#define PERFBENCH_TRACED_FS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/file_io.h"

namespace perfbench {

/// A FileSystem that forwards to the process's POSIX filesystem and
/// records every call: a span per call (a child of the caller's request,
/// see ScopedSpan) plus always-on counters of calls, bytes and time per
/// (area, operation). The area says which part of the durability layer a
/// path belongs to: the WAL directory, the checkpoint directory, or
/// anything else.
class TracedFs : public perfxplain::FileSystem {
 public:
  enum Area { kWal, kCheckpoint, kOther, kAreaCount };
  enum Op {
    kOpen, kAppend, kSync, kClose, kRead, kExists, kList, kMkdir, kRename,
    kRemove, kRemoveAll, kTruncate, kSyncDir, kOpCount
  };

  TracedFs(std::string wal_dir, std::string checkpoint_dir);

  perfxplain::Result<std::unique_ptr<perfxplain::WritableFile>>
  OpenForAppend(const std::string& path) override;
  perfxplain::Result<std::string> ReadFile(const std::string& path) override;
  perfxplain::Result<bool> FileExists(const std::string& path) override;
  perfxplain::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  perfxplain::Status CreateDirs(const std::string& dir) override;
  perfxplain::Status Rename(const std::string& from,
                            const std::string& to) override;
  perfxplain::Status RemoveFile(const std::string& path) override;
  perfxplain::Status RemoveAll(const std::string& path) override;
  perfxplain::Status TruncateFile(const std::string& path,
                                  std::uint64_t size) override;
  perfxplain::Status SyncDir(const std::string& dir) override;

  /// Span name of (area, op), e.g. "wal.sync"; static storage.
  static const char* SpanName(Area area, Op op);

  /// The counters as a JSON object keyed by span name.
  std::string CountersJson() const;

 private:
  class Call;
  class File;

  Area AreaOf(const std::string& path) const;
  void Count(Area area, Op op, std::int64_t bytes, std::int64_t ns);

  struct Counter {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> ns{0};
  };

  const std::string wal_dir_;
  const std::string checkpoint_dir_;
  perfxplain::FileSystem* const inner_;
  std::array<std::array<Counter, kOpCount>, kAreaCount> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_FS_H_
