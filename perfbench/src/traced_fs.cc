#include "traced_fs.h"

#include <utility>

#include "common/string_util.h"
#include "trace.h"

namespace perfbench {

namespace px = perfxplain;

namespace {

constexpr const char* kSpanNames[TracedFs::kAreaCount][TracedFs::kOpCount] =
    {
        {"wal.open", "wal.append", "wal.sync", "wal.close", "wal.read",
         "wal.exists", "wal.list", "wal.mkdir", "wal.rename", "wal.remove",
         "wal.remove_all", "wal.truncate", "wal.syncdir"},
        {"ckpt.open", "ckpt.append", "ckpt.sync", "ckpt.close", "ckpt.read",
         "ckpt.exists", "ckpt.list", "ckpt.mkdir", "ckpt.rename",
         "ckpt.remove", "ckpt.remove_all", "ckpt.truncate", "ckpt.syncdir"},
        {"fs.open", "fs.append", "fs.sync", "fs.close", "fs.read",
         "fs.exists", "fs.list", "fs.mkdir", "fs.rename", "fs.remove",
         "fs.remove_all", "fs.truncate", "fs.syncdir"},
};

bool HasDirPrefix(const std::string& path, const std::string& dir) {
  return !dir.empty() && path.compare(0, dir.size(), dir) == 0 &&
         (path.size() == dir.size() || path[dir.size()] == '/');
}

}  // namespace

/// Times one forwarded call under a span and counts it on completion.
class TracedFs::Call {
 public:
  Call(TracedFs* fs, Area area, Op op)
      : fs_(fs), area_(area), op_(op), span_(SpanName(area, op)),
        start_(NowNs()) {}
  ~Call() { fs_->Count(area_, op_, bytes_, NowNs() - start_); }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

  void set_bytes(std::int64_t bytes) {
    bytes_ = bytes;
    span_.set_bytes(bytes);
  }

 private:
  TracedFs* fs_;
  Area area_;
  Op op_;
  ScopedSpan span_;
  std::int64_t start_;
  std::int64_t bytes_ = 0;
};

class TracedFs::File : public px::WritableFile {
 public:
  File(std::unique_ptr<px::WritableFile> inner, TracedFs* fs,
       Area area)
      : inner_(std::move(inner)), fs_(fs), area_(area) {}

  px::Status Append(std::string_view data) override {
    Call call(fs_, area_, kAppend);
    call.set_bytes(static_cast<std::int64_t>(data.size()));
    return inner_->Append(data);
  }
  px::Status Sync() override {
    Call call(fs_, area_, kSync);
    return inner_->Sync();
  }
  px::Status Close() override {
    Call call(fs_, area_, kClose);
    return inner_->Close();
  }

 private:
  std::unique_ptr<px::WritableFile> inner_;
  TracedFs* fs_;
  Area area_;
};

TracedFs::TracedFs(std::string wal_dir, std::string checkpoint_dir)
    : wal_dir_(std::move(wal_dir)),
      checkpoint_dir_(std::move(checkpoint_dir)),
      inner_(px::FileSystem::Default()) {}

const char* TracedFs::SpanName(Area area, Op op) {
  return kSpanNames[area][op];
}

TracedFs::Area TracedFs::AreaOf(const std::string& path) const {
  if (HasDirPrefix(path, wal_dir_)) return kWal;
  if (HasDirPrefix(path, checkpoint_dir_)) return kCheckpoint;
  return kOther;
}

void TracedFs::Count(Area area, Op op, std::int64_t bytes, std::int64_t ns) {
  Counter& counter = counters_[area][op];
  counter.calls.fetch_add(1, std::memory_order_relaxed);
  counter.bytes.fetch_add(static_cast<std::uint64_t>(bytes),
                          std::memory_order_relaxed);
  counter.ns.fetch_add(static_cast<std::uint64_t>(ns),
                       std::memory_order_relaxed);
}

px::Result<std::unique_ptr<px::WritableFile>> TracedFs::OpenForAppend(
    const std::string& path) {
  const Area area = AreaOf(path);
  Call call(this, area, kOpen);
  px::Result<std::unique_ptr<px::WritableFile>> file =
      inner_->OpenForAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<px::WritableFile>(
      new File(std::move(file).value(), this, area));
}

px::Result<std::string> TracedFs::ReadFile(const std::string& path) {
  Call call(this, AreaOf(path), kRead);
  px::Result<std::string> data = inner_->ReadFile(path);
  if (data.ok()) call.set_bytes(static_cast<std::int64_t>(data->size()));
  return data;
}

px::Result<bool> TracedFs::FileExists(const std::string& path) {
  Call call(this, AreaOf(path), kExists);
  return inner_->FileExists(path);
}

px::Result<std::vector<std::string>> TracedFs::ListDir(
    const std::string& dir) {
  Call call(this, AreaOf(dir), kList);
  return inner_->ListDir(dir);
}

px::Status TracedFs::CreateDirs(const std::string& dir) {
  Call call(this, AreaOf(dir), kMkdir);
  return inner_->CreateDirs(dir);
}

px::Status TracedFs::Rename(const std::string& from, const std::string& to) {
  Call call(this, AreaOf(from), kRename);
  return inner_->Rename(from, to);
}

px::Status TracedFs::RemoveFile(const std::string& path) {
  Call call(this, AreaOf(path), kRemove);
  return inner_->RemoveFile(path);
}

px::Status TracedFs::RemoveAll(const std::string& path) {
  Call call(this, AreaOf(path), kRemoveAll);
  return inner_->RemoveAll(path);
}

px::Status TracedFs::TruncateFile(const std::string& path,
                                  std::uint64_t size) {
  Call call(this, AreaOf(path), kTruncate);
  return inner_->TruncateFile(path, size);
}

px::Status TracedFs::SyncDir(const std::string& dir) {
  Call call(this, AreaOf(dir), kSyncDir);
  return inner_->SyncDir(dir);
}

std::string TracedFs::CountersJson() const {
  std::string json = "{";
  bool first = true;
  for (int area = 0; area < kAreaCount; ++area) {
    for (int op = 0; op < kOpCount; ++op) {
      const Counter& counter = counters_[area][op];
      const std::uint64_t calls =
          counter.calls.load(std::memory_order_relaxed);
      if (calls == 0) continue;
      json += px::StrFormat(
          "%s\"%s\":{\"calls\":%llu,\"bytes\":%llu,\"ms\":%.3f}",
          first ? "" : ",", kSpanNames[area][op],
          static_cast<unsigned long long>(calls),
          static_cast<unsigned long long>(
              counter.bytes.load(std::memory_order_relaxed)),
          static_cast<double>(counter.ns.load(std::memory_order_relaxed)) /
              1e6);
      first = false;
    }
  }
  return json + "}";
}

}  // namespace perfbench
