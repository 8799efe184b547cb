// The live_jobs workload: a durable LiveEngine serving the Table 2 job log
// while it ingests. It starts with LiveEngine::Recover from a checkpoint of
// the 540-job log plus a WAL tail; then two closed-loop readers (each
// re-preparing every request, as a live client does), an open-loop writer
// appending fresh simulated jobs on a fixed schedule, and a rotator
// promoting pending rows on a fixed cadence all run at once.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "common.h"
#include "common/string_util.h"
#include "core/pair_enumeration.h"
#include "harness.h"
#include "layers.h"
#include "serving/live_engine.h"
#include "simulator/trace_generator.h"
#include "storage/checkpoint.h"
#include "trace.h"
#include "traced_fs.h"

namespace perfbench {

namespace px = perfxplain;
namespace stdfs = std::filesystem;

namespace {

constexpr std::size_t kPoolSize = 32;
constexpr double kZipfExponent = 1.0;
constexpr int kMix[3] = {40, 40, 20};  // PerfXplain, SimButDiff, RuleOfThumb
constexpr int kReaders = 2;
/// Mean of the readers' exponential think time between requests: an
/// interactive user reads an answer before asking again. It also bounds
/// the request rate once the cache answers nearly everything. Readers spin
/// through it rather than sleep: on a shared virtual machine an idle vCPU
/// is handed to other tenants, and the reader's next request then pays
/// for being rescheduled and for cold caches.
constexpr double kThinkMeanMs = 2.0;
/// WAL batches (one record each) journaled after the checkpoint and
/// replayed by Recover.
constexpr std::size_t kTailBatches = 64;
constexpr std::int64_t kRotateCadenceMs = 500;
constexpr std::size_t kResultCacheBytes = std::size_t{16} << 20;
constexpr int kSetupRepetitions = 3;
constexpr int kCheckWorkers = 4;
/// Fresh jobs come from a second simulation with another seed.
constexpr std::uint64_t kFreshJobsSeedOffset = 0x2545f4914f6cdd1dULL;

px::EngineOptions ServingOptions() {
  px::EngineOptions options;
  options.explainer.threads = 1;
  options.sim_but_diff.threads = 1;
  options.rule_of_thumb.relief.threads = 1;
  options.result_cache_bytes = kResultCacheBytes;
  return options;
}

px::RotationPolicy ServingPolicy() {
  px::RotationPolicy policy;  // no auto-rotation: the rotator thread rotates
  policy.promote_threads = 1;
  return policy;
}

px::DurabilityOptions Durability(const stdfs::path& root) {
  px::DurabilityOptions durability;
  durability.wal_dir = (root / "wal").string();
  durability.checkpoint_dir = (root / "ckpt").string();
  durability.wal.fsync = px::FsyncMode::kEveryBatch;
  durability.checkpoint_on_rotate = true;
  return durability;
}

struct Inputs {
  px::ExecutionLog seed_log;
  /// Fresh jobs: the WAL tail first, then the timed appends.
  std::vector<px::ExecutionRecord> fresh;
  std::vector<std::string> pool;  ///< PXQL of each pair of interest
};

/// The Table 2 log, fresh jobs from a second simulation (renamed so their
/// ids are new), and the pool of pairs of interest. The log grows by half
/// over a run: the WAL tail, then the timed appends.
px::Result<Inputs> MakeInputs(std::uint64_t seed) {
  px::TraceOptions base_options;
  base_options.seed = seed;
  px::TraceOptions fresh_options;
  fresh_options.seed = seed ^ kFreshJobsSeedOffset;
  px::Result<px::Trace> fresh_trace = px::Status::Internal("not generated");
  std::thread fresh_thread(
      [&] { fresh_trace = px::GenerateTrace(fresh_options); });
  px::Result<px::Trace> base_trace = px::GenerateTrace(base_options);
  fresh_thread.join();
  if (!base_trace.ok()) return base_trace.status();
  if (!fresh_trace.ok()) return fresh_trace.status();

  Inputs inputs;
  inputs.seed_log = std::move(base_trace->job_log);
  const px::ExecutionLog& fresh_log = fresh_trace->job_log;
  const std::size_t fresh_count = inputs.seed_log.size() / 2;
  for (std::size_t i = 0; i < fresh_count; ++i) {
    px::ExecutionRecord record = fresh_log.at(i % fresh_log.size());
    record.id = px::StrFormat("live_%06zu", i);
    inputs.fresh.push_back(std::move(record));
  }
  px::Result<std::vector<std::string>> pool = PickPairsOfInterest(
      inputs.seed_log, px::bench::WhySlowerDespiteSameNumInstancesQuery(),
      kPoolSize);
  if (!pool.ok()) return pool.status();
  inputs.pool = std::move(pool).value();
  return inputs;
}

/// The durable state every set-up starts from: a checkpoint of the seed
/// log and a WAL tail of single-record batches past it.
px::Status WritePristine(const stdfs::path& dir, const Inputs& inputs) {
  const px::DurabilityOptions durability = Durability(dir);
  PX_RETURN_IF_ERROR(px::SnapshotCheckpoint::Write(
      durability.checkpoint_dir, inputs.seed_log, /*generation=*/1,
      /*wal_through=*/0));
  px::Result<std::unique_ptr<px::LiveEngine>> writer =
      px::LiveEngine::Recover(inputs.seed_log, durability, ServingOptions(),
                              ServingPolicy());
  if (!writer.ok()) return writer.status();
  for (std::size_t i = 0; i < kTailBatches; ++i) {
    PX_RETURN_IF_ERROR((*writer)->Append(inputs.fresh[i]));
  }
  return px::Status::OK();
}

/// Removes a directory tree when it goes out of scope.
class ScopedDir {
 public:
  explicit ScopedDir(stdfs::path path) : path_(std::move(path)) {
    std::error_code ignored;
    stdfs::remove_all(path_, ignored);
  }
  ~ScopedDir() {
    std::error_code ignored;
    stdfs::remove_all(path_, ignored);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

  const stdfs::path& path() const { return path_; }

 private:
  stdfs::path path_;
};

struct Serving {
  std::unique_ptr<px::LiveEngine> live;
  px::RecoveryStats recovery;
  double recover_ms = 0.0;
  std::uint64_t recover_span = 0;  ///< id of the "recover" span, if traced
};

/// Set-up as a user pays it: Recover, prepare the request pool, and one
/// warm request per technique (pair-code plane build, RReliefF ranking).
px::Result<Serving> SetUp(const Inputs& inputs,
                          const px::DurabilityOptions& durability,
                          px::FileSystem* fs, bool record,
                          std::vector<double>* prepare_ms) {
  px::ExecutionLog seed_copy = inputs.seed_log;
  auto root = ScopedSpan::Root("setup", record);
  Serving serving;
  {
    ScopedSpan span("recover");
    serving.recover_span = span.id();
    const std::int64_t start = NowNs();
    px::Result<std::unique_ptr<px::LiveEngine>> recovered =
        px::LiveEngine::Recover(std::move(seed_copy), durability,
                                ServingOptions(), ServingPolicy(),
                                &serving.recovery, fs);
    serving.recover_ms = NsToMs(NowNs() - start);
    if (!recovered.ok()) return recovered.status();
    serving.live = std::move(recovered).value();
  }
  std::vector<px::PreparedQuery> prepared;
  for (const std::string& pxql : inputs.pool) {
    const std::int64_t start = NowNs();
    px::Result<px::PreparedQuery> one = [&] {
      ScopedSpan span("pxql.prepare");
      return serving.live->PrepareText(pxql);
    }();
    prepare_ms->push_back(NsToMs(NowNs() - start));
    if (!one.ok()) return one.status();
    prepared.push_back(std::move(one).value());
  }
  for (px::Technique technique :
       {px::Technique::kPerfXplain, px::Technique::kSimButDiff,
        px::Technique::kRuleOfThumb}) {
    ScopedSpan span("engine.explain");
    px::ExplainRequest request;
    request.technique = technique;
    request.threads = 1;
    px::Result<px::ExplainResponse> warm =
        serving.live->Explain(prepared.front(), request);
    if (!warm.ok()) return warm.status();
  }
  return serving;
}

/// One reader response, without its explanation (see ReaderLog).
struct Sample {
  px::Technique technique = px::Technique::kPerfXplain;
  std::size_t pair = 0;
  std::int64_t start_ns = 0;
  std::int64_t prepared_ns = 0;
  std::int64_t end_ns = 0;
  bool traced = false;
  bool ok = false;
  std::size_t rows = 0;  ///< rows of the snapshot the response was served on
  bool cache_hit = false;
  std::uint64_t snapshot_id = 0;
  double explain_ms = 0.0;
};

/// (snapshot rows, pair, technique): requests that must get identical
/// responses.
using RequestKey = std::tuple<std::size_t, std::size_t, int>;

/// What one reader thread recorded. The first response to each RequestKey
/// is kept whole for the oracle; every later one is compared with it
/// bitwise on the spot, so every response is checked while memory stays
/// bounded by the number of distinct requests, not the number served.
struct ReaderLog {
  std::vector<Sample> samples;
  ResponseTally tally;
  std::map<RequestKey, px::ExplainResponse> first;
  std::uint64_t mismatches = 0;
  std::string first_error;
};

struct AppendResult {
  std::size_t index = 0;  ///< into Inputs::fresh
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t ack_ns = 0;
  px::Status status;
};

struct RotateResult {
  std::size_t pending = 0;
  px::Status status;
  px::RotationStats stats;
};

/// Freshness of each acknowledged append: from its acknowledgement to the
/// first response on a snapshot that contains it. `served` is ordered by
/// completion; append k is row `recovered_rows + k`. Appends no reader
/// saw before the end are left out.
std::vector<double> Freshness(const std::vector<Sample>& served,
                              const std::vector<std::int64_t>& ack_ns,
                              std::size_t recovered_rows) {
  std::vector<double> freshness_ms;
  std::size_t cursor = 0;
  std::size_t max_rows = 0;  // most rows any response up to `cursor` saw
  for (std::size_t k = 0; k < ack_ns.size(); ++k) {
    const std::size_t needed = recovered_rows + k + 1;
    while (cursor < served.size() && max_rows < needed) {
      if (served[cursor].ok) {
        max_rows = std::max(max_rows, served[cursor].rows);
      }
      if (max_rows < needed) ++cursor;
    }
    if (cursor == served.size()) break;
    // A rotation may fold a record in before the writer records its
    // acknowledgement; such a record was fresh at once.
    freshness_ms.push_back(
        std::max(0.0, NsToMs(served[cursor].end_ns - ack_ns[k])));
  }
  return freshness_ms;
}

/// Storage-layer metrics, attributed through the filesystem wrapper's
/// spans to the request that caused each call: an append (journal write,
/// fsync), a rotation (checkpoint) or the last set-up's Recover (reads).
void AddStorageMetrics(const std::vector<Span>& spans,
                       std::uint64_t recover_span, Report* report) {
  const std::string wal_append =
      TracedFs::SpanName(TracedFs::kWal, TracedFs::kAppend);
  const std::string wal_sync =
      TracedFs::SpanName(TracedFs::kWal, TracedFs::kSync);
  const std::string wal_syncdir =
      TracedFs::SpanName(TracedFs::kWal, TracedFs::kSyncDir);
  const std::string ckpt_append =
      TracedFs::SpanName(TracedFs::kCheckpoint, TracedFs::kAppend);
  std::uint64_t appends = 0;
  std::uint64_t append_syncs = 0;
  std::uint64_t wal_bytes = 0;
  std::vector<double> fsync_us;
  std::uint64_t rotations = 0;
  std::uint64_t checkpoint_bytes = 0;
  // Per rotation: first start and last end of its checkpoint file calls.
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> windows;
  std::uint64_t recovery_bytes = 0;
  for (const Span& span : spans) {
    const std::string name = span.name;
    const std::string root = span.root;
    const std::uint64_t bytes =
        span.bytes > 0 ? static_cast<std::uint64_t>(span.bytes) : 0;
    if (span.parent == 0) {
      appends += name == "append" ? 1 : 0;
      rotations += name == "rotate" ? 1 : 0;
    } else if (root == "append") {
      append_syncs += name == wal_sync || name == wal_syncdir ? 1 : 0;
      if (name == wal_sync) fsync_us.push_back(span.ms() * 1e3);
      if (name == wal_append) wal_bytes += bytes;
    } else if (root == "rotate" && name.rfind("ckpt.", 0) == 0) {
      if (name == ckpt_append) checkpoint_bytes += bytes;
      auto [it, inserted] = windows.emplace(
          span.request, std::make_pair(span.start_ns, span.end_ns));
      if (!inserted) {
        it->second.first = std::min(it->second.first, span.start_ns);
        it->second.second = std::max(it->second.second, span.end_ns);
      }
    } else if (recover_span != 0 && span.parent == recover_span &&
               name.size() > 5 &&
               name.compare(name.size() - 5, 5, ".read") == 0) {
      recovery_bytes += bytes;
    }
  }
  std::vector<double> checkpoint_ms;
  for (const auto& [request, window] : windows) {
    checkpoint_ms.push_back(NsToMs(window.second - window.first));
  }
  report->Add("storage.fsyncs_per_append", "ratio",
              RatioOr0(static_cast<double>(append_syncs),
                       static_cast<double>(appends)),
              appends);
  report->Add("storage.fsync_p50_us", "us", Median(fsync_us),
              fsync_us.size());
  report->Add("storage.wal_bytes_per_record", "B",
              RatioOr0(static_cast<double>(wal_bytes),
                       static_cast<double>(appends)),
              appends);
  report->Add("storage.checkpoint_mb_per_rotation", "MB",
              RatioOr0(static_cast<double>(checkpoint_bytes) / 1048576.0,
                       static_cast<double>(rotations)),
              rotations);
  report->Add("storage.checkpoint_ms", "ms", Median(checkpoint_ms),
              checkpoint_ms.size());
  report->Add("recovery.bytes_read", "B", static_cast<double>(recovery_bytes),
              1);
}

/// Serving-layer metrics from the rotator's calls; returns the number of
/// failed rotations (error status or failed checkpoint).
std::uint64_t AddServingLayerMetrics(const std::vector<RotateResult>& calls,
                                     bool report_layers, Report* report) {
  std::uint64_t failed = 0;
  std::uint64_t seeded = 0;
  std::size_t pending_max = 0;
  std::vector<double> promote_ms;
  double invalidated = 0.0;
  for (const RotateResult& call : calls) {
    pending_max = std::max(pending_max, call.pending);
    if (!call.status.ok() || !call.stats.checkpoint_error.empty()) {
      ++failed;
      continue;
    }
    promote_ms.push_back(call.stats.promote_ms);
    invalidated += static_cast<double>(call.stats.invalidated_cache_entries);
    seeded += call.stats.pair_plane_seeded ? 1 : 0;
  }
  if (!report_layers) return failed;
  const double rotations = static_cast<double>(promote_ms.size());
  report->Add("result_cache.invalidated_per_rotation", "count",
              RatioOr0(invalidated, rotations), promote_ms.size());
  report->Add("serving.rotations", "count", rotations, calls.size());
  report->Add("serving.promote_ms", "ms", Median(promote_ms),
              promote_ms.size());
  report->Add("serving.plane_seeded_ratio", "ratio",
              RatioOr0(static_cast<double>(seeded), rotations),
              promote_ms.size());
  report->Add("serving.pending_rows_max", "count",
              static_cast<double>(pending_max), calls.size());
  report->Add("serving.rotate_failures", "count",
              static_cast<double>(failed), calls.size());
  return failed;
}

/// Durability violations of a recovered log: acknowledged ids that are
/// missing, ids that were never acknowledged, and (when the sets agree) a
/// different order.
std::uint64_t DurabilityViolations(
    const std::vector<px::ExecutionRecord>& recovered,
    const std::vector<px::ExecutionRecord>& acknowledged) {
  std::set<std::string> expected;
  for (const px::ExecutionRecord& record : acknowledged) {
    expected.insert(record.id);
  }
  std::set<std::string> present;
  std::uint64_t violations = 0;
  for (const px::ExecutionRecord& record : recovered) {
    present.insert(record.id);
    violations += expected.count(record.id) == 0 ? 1 : 0;
  }
  for (const std::string& id : expected) {
    violations += present.count(id) == 0 ? 1 : 0;
  }
  if (violations == 0) {
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      if (recovered[i].id != acknowledged[i].id) return 1;
    }
  }
  return violations;
}

/// The first `rows` records of `sequence` as a log.
px::Result<px::ExecutionLog> Prefix(
    const px::Schema& schema, const std::vector<px::ExecutionRecord>& sequence,
    std::size_t rows) {
  if (rows > sequence.size()) {
    return px::Status::OutOfRange(px::StrFormat(
        "response on %zu rows, only %zu acknowledged", rows,
        sequence.size()));
  }
  px::ExecutionLog log(schema);
  for (std::size_t i = 0; i < rows; ++i) {
    PX_RETURN_IF_ERROR(log.Add(sequence[i]));
  }
  return log;
}

/// The output oracle: the first response to each distinct request of each
/// reader (later ones were compared with it in the reader) against a cold
/// single-threaded engine over the first r acknowledged rows, r being the
/// row count of the response's snapshot. Returns the mismatches.
std::uint64_t CheckOracle(const std::vector<ReaderLog>& reader_logs,
                          const Inputs& inputs,
                          const std::vector<px::ExecutionRecord>& acknowledged,
                          Report* report) {
  using Requests = std::map<std::pair<std::size_t, int>,
                            std::vector<const px::ExplainResponse*>>;
  std::map<std::size_t, Requests> by_rows;
  for (const ReaderLog& log : reader_logs) {
    for (const auto& [key, response] : log.first) {
      by_rows[std::get<0>(key)][{std::get<1>(key), std::get<2>(key)}]
          .push_back(&response);
    }
  }
  std::vector<const std::pair<const std::size_t, Requests>*> generations;
  for (const auto& generation : by_rows) generations.push_back(&generation);
  std::vector<std::uint64_t> mismatches(generations.size(), 0);
  std::vector<std::uint64_t> distinct(generations.size(), 0);
  ParallelFor(generations.size(), kCheckWorkers, [&](std::size_t g) {
    const auto& [rows, requests] = *generations[g];
    px::Result<px::ExecutionLog> prefix =
        Prefix(inputs.seed_log.schema(), acknowledged, rows);
    if (!prefix.ok()) {
      for (const auto& [key, responses] : requests) {
        mismatches[g] += responses.size();
      }
      return;
    }
    const px::Engine oracle(std::move(prefix).value(),
                            ColdSingleThreadedOptions());
    for (const auto& [key, responses] : requests) {
      ++distinct[g];
      std::optional<px::ExplainResponse> expected;
      px::Result<px::PreparedQuery> prepared =
          oracle.PrepareText(inputs.pool[key.first]);
      if (prepared.ok()) {
        px::ExplainRequest request;
        request.technique = static_cast<px::Technique>(key.second);
        request.threads = 1;
        px::Result<px::ExplainResponse> answered =
            oracle.Explain(*prepared, request);
        if (answered.ok()) expected = std::move(answered).value();
      }
      for (const px::ExplainResponse* response : responses) {
        if (!expected || !SameResult(*expected, *response)) ++mismatches[g];
      }
    }
  });
  std::uint64_t mismatched = 0;
  std::uint64_t answered = 0;
  for (std::size_t g = 0; g < generations.size(); ++g) {
    mismatched += mismatches[g];
    answered += distinct[g];
  }
  report->AddNote(px::StrFormat(
      "oracle answered %llu distinct requests over %zu generations",
      static_cast<unsigned long long>(answered), generations.size()));
  return mismatched;
}

struct TimedPhase {
  std::int64_t start_ns = 0;
  std::vector<ReaderLog> readers;
  std::vector<AppendResult> appends;
  std::vector<RotateResult> rotations;
};

/// The timed phase: two readers, the writer and the rotator, all started
/// at one instant and run for `seconds`. With `trace`, requests in the
/// middle half are traced and the outer quarters are not, so tracing
/// overhead is a same-run ratio.
TimedPhase RunTimedPhase(px::LiveEngine& live, const Inputs& inputs,
                         std::uint64_t seed, int seconds, bool trace) {
  const std::int64_t span_ns = std::int64_t{seconds} * 1000000000;
  const std::int64_t start = NowNs() + 5000000;  // all threads start here
  const std::int64_t deadline = start + span_ns;
  const auto traced_at = [&](std::int64_t now) {
    const std::int64_t elapsed = now - start;
    return trace && elapsed >= span_ns / 4 &&
           elapsed < span_ns - span_ns / 4;
  };
  const ZipfSampler zipf(inputs.pool.size(), kZipfExponent);
  TimedPhase phase;
  phase.start_ns = start;
  phase.readers.resize(kReaders);
  std::vector<AppendResult>& appends = phase.appends;
  std::vector<RotateResult>& rotations = phase.rotations;
  const std::size_t timed_appends = inputs.fresh.size() - kTailBatches;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      px::Rng rng(seed * 1000003 + static_cast<std::uint64_t>(r));
      ReaderLog& out = phase.readers[static_cast<std::size_t>(r)];
      SleepUntilNs(start);
      for (std::int64_t now = NowNs(); now < deadline; now = NowNs()) {
        Sample item;
        item.technique = DrawTechnique(rng, kMix);
        item.pair = zipf.Draw(rng);
        item.traced = traced_at(now);
        px::ExplainRequest request;
        request.technique = item.technique;
        request.threads = 1;
        std::optional<px::ExplainResponse> response;
        item.start_ns = NowNs();
        {
          auto root = ScopedSpan::Root("request", item.traced);
          px::Result<px::PreparedQuery> prepared = [&] {
            ScopedSpan span("pxql.prepare");
            return live.PrepareText(inputs.pool[item.pair]);
          }();
          item.prepared_ns = NowNs();
          if (prepared.ok()) {
            item.rows = prepared->snapshot()->log().size();
            ScopedSpan span("engine.explain");
            px::Result<px::ExplainResponse> explained =
                live.Explain(*prepared, request);
            if (explained.ok()) {
              response = std::move(explained).value();
            } else if (out.first_error.empty()) {
              out.first_error = explained.status().ToString();
            }
          } else if (out.first_error.empty()) {
            out.first_error = prepared.status().ToString();
          }
        }
        item.end_ns = NowNs();
        if (response.has_value()) {
          item.ok = true;
          item.cache_hit = response->result_cache_hit;
          item.snapshot_id = response->snapshot_id;
          item.explain_ms = response->explain_ms;
          out.tally.Add(*response);
          const RequestKey key{item.rows, item.pair,
                               static_cast<int>(item.technique)};
          auto [it, inserted] = out.first.try_emplace(key);
          if (inserted) {
            it->second = std::move(*response);
          } else if (!SameResult(it->second, *response)) {
            ++out.mismatches;
          }
        }
        out.samples.push_back(item);
        SpinUntilNs(NowNs() + static_cast<std::int64_t>(
                                  rng.Exponential(kThinkMeanMs) * 1e6));
      }
    });
  }
  threads.emplace_back([&] {
    // Open loop: append k is due at start + k * interval whether or not
    // earlier appends were slow; latency counts from the due time.
    const std::int64_t interval =
        span_ns / static_cast<std::int64_t>(timed_appends);
    for (std::size_t k = 0; k < timed_appends; ++k) {
      AppendResult item;
      item.index = kTailBatches + k;
      item.due_ns = start + static_cast<std::int64_t>(k) * interval;
      px::ExecutionRecord record = inputs.fresh[item.index];
      SleepUntilNs(item.due_ns);
      item.sent_ns = NowNs();
      {
        auto root = ScopedSpan::Root("append", traced_at(item.sent_ns));
        item.status = live.Append(std::move(record));
      }
      item.ack_ns = NowNs();
      appends.push_back(std::move(item));
    }
  });
  threads.emplace_back([&] {
    const std::int64_t cadence = kRotateCadenceMs * 1000000;
    for (std::int64_t due = start + cadence; due < deadline; due += cadence) {
      SleepUntilNs(due);
      RotateResult item;
      item.pending = live.pending_rows();
      if (item.pending == 0) continue;
      {
        auto root = ScopedSpan::Root("rotate", traced_at(NowNs()));
        px::Result<px::RotationStats> rotated = live.Rotate();
        if (rotated.ok()) {
          item.stats = *rotated;
        } else {
          item.status = rotated.status();
        }
      }
      rotations.push_back(std::move(item));
    }
  });
  for (std::thread& thread : threads) thread.join();
  return phase;
}

}  // namespace

px::Status RunLiveJobs(const Flags& flags, Report* report) {
  const std::int64_t run_start = NowNs();
  px::Result<Inputs> made = MakeInputs(flags.seed);
  if (!made.ok()) return made.status();
  const Inputs inputs = std::move(made).value();
  const std::size_t timed_appends = inputs.fresh.size() - kTailBatches;

  const ScopedDir work(stdfs::path(flags.out_dir) /
                       px::StrFormat("work-live_jobs-%ld",
                                     static_cast<long>(getpid())));
  const stdfs::path pristine = work.path() / "pristine";
  const stdfs::path serving_dir = work.path() / "serving";
  PX_RETURN_IF_ERROR(WritePristine(pristine, inputs));
  const px::DurabilityOptions durability = Durability(serving_dir);
  TracedFs traced_fs(durability.wal_dir, durability.checkpoint_dir);
  px::FileSystem* fs = flags.trace ? &traced_fs : nullptr;
  report->AddNote(px::StrFormat(
      "seed log rows=%zu, wal tail=%zu batches, timed appends=%zu, "
      "pool=%zu, rotate every %lld ms",
      inputs.seed_log.size(), kTailBatches, timed_appends,
      inputs.pool.size(), static_cast<long long>(kRotateCadenceMs)));
  if (!ResetPeakRss()) report->AddNote("peak RSS reset refused by kernel");
  const std::int64_t inputs_done = NowNs();

  // ---- set-up, several times from the same pristine state; the last one
  // serves the timed phase.
  std::vector<double> setup_s;
  std::vector<double> recover_ms;
  std::vector<double> prepare_ms;
  // Every set-up must recover exactly the seed log plus the WAL tail.
  std::vector<px::ExecutionRecord> pristine_records =
      inputs.seed_log.records();
  pristine_records.insert(pristine_records.end(), inputs.fresh.begin(),
                          inputs.fresh.begin() + kTailBatches);
  std::uint64_t durability_violations = 0;
  Serving serving;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    serving = Serving{};  // release the previous engine before timing
    std::error_code copy_error;
    stdfs::remove_all(serving_dir, copy_error);
    stdfs::copy(pristine, serving_dir, stdfs::copy_options::recursive,
                copy_error);
    if (copy_error) {
      return px::Status::IoError("copy pristine state: " +
                                 copy_error.message());
    }
    const std::int64_t start = NowNs();
    px::Result<Serving> set_up =
        SetUp(inputs, durability, fs, flags.trace, &prepare_ms);
    if (!set_up.ok()) return set_up.status();
    serving = std::move(set_up).value();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    recover_ms.push_back(serving.recover_ms);
    durability_violations += DurabilityViolations(
        serving.live->engine()->log().records(), pristine_records);
  }
  px::LiveEngine& live = *serving.live;
  // The seed log, the WAL tail and then every acknowledged append, in
  // order: a snapshot of r rows holds exactly the first r of these.
  std::vector<px::ExecutionRecord> acknowledged = pristine_records;
  const std::size_t recovered_rows = acknowledged.size();

  const CpuTimes cpu_before = ReadCpuTimes();
  const TimedPhase phase = RunTimedPhase(live, inputs, flags.seed,
                                         flags.seconds, flags.trace);
  AddStealNote(cpu_before, ReadCpuTimes(), report);
  const std::int64_t start = phase.start_ns;
  const std::optional<double> peak_rss_mb = PeakRssMb();
  const std::int64_t timed_done = NowNs();

  // ---- writes.
  std::vector<double> append_us;
  std::vector<std::int64_t> ack_ns;
  std::uint64_t append_failed = 0;
  double max_late_ms = 0.0;
  for (const AppendResult& item : phase.appends) {
    max_late_ms = std::max(max_late_ms, NsToMs(item.sent_ns - item.due_ns));
    if (!item.status.ok()) {
      ++append_failed;
      continue;
    }
    append_us.push_back(static_cast<double>(item.ack_ns - item.due_ns) / 1e3);
    ack_ns.push_back(item.ack_ns);
    acknowledged.push_back(inputs.fresh[item.index]);
  }

  // ---- reads.
  std::vector<Sample> served;
  ResponseTally tally;
  std::uint64_t reader_mismatches = 0;
  for (const ReaderLog& out : phase.readers) {
    served.insert(served.end(), out.samples.begin(), out.samples.end());
    tally.Merge(out.tally);
    reader_mismatches += out.mismatches;
    if (!out.first_error.empty()) {
      report->AddNote("first read error: " + out.first_error);
    }
  }
  std::sort(served.begin(), served.end(),
            [](const Sample& a, const Sample& b) {
              return a.end_ns < b.end_ns;
            });
  ClientLatencies latencies;
  std::vector<double> request_prepare_ms;
  std::map<std::uint64_t, double> first_rule_of_thumb_ms;
  std::uint64_t explain_failed = 0;
  std::uint64_t cache_hits = 0;
  std::int64_t last_end = start;
  for (const Sample& item : served) {
    if (!item.ok) {
      ++explain_failed;
      continue;
    }
    latencies.Add(item.technique, NsToMs(item.end_ns - item.start_ns),
                  item.traced);
    request_prepare_ms.push_back(NsToMs(item.prepared_ns - item.start_ns));
    last_end = std::max(last_end, item.end_ns);
    cache_hits += item.cache_hit ? 1 : 0;
    if (!item.cache_hit && item.technique == px::Technique::kRuleOfThumb) {
      // The first computed RuleOfThumb answer of a generation pays that
      // generation's lazy RReliefF ranking.
      first_rule_of_thumb_ms.emplace(item.snapshot_id, item.explain_ms);
    }
  }

  // ---- end-to-end metrics.
  AddServingMetrics(setup_s, latencies,
                    static_cast<double>(last_end - start) / 1e9, peak_rss_mb,
                    report);
  const std::vector<double> freshness_ms =
      Freshness(served, ack_ns, recovered_rows);
  report->Add("append_p50_us", "us", Median(append_us), append_us.size());
  report->Add("append_p90_us", "us", Percentile(append_us, 0.90),
              append_us.size());
  report->Add("freshness_p50_ms", "ms", Median(freshness_ms),
              freshness_ms.size());
  report->Add("freshness_p90_ms", "ms", Percentile(freshness_ms, 0.90),
              freshness_ms.size());
  report->Add("precision", "ratio", std::nullopt, 0);
  report->Add("generality", "ratio", std::nullopt, 0);
  report->AddNote(px::StrFormat(
      "writer ran at most %.3f ms behind its schedule; %zu rotations; "
      "%zu rows at the end",
      max_late_ms, phase.rotations.size(), live.engine()->log().size()));

  // ---- per-layer metrics (traced run); the probes run after the timed
  // phase, on the final generation.
  const std::uint64_t rotate_failed =
      AddServingLayerMetrics(phase.rotations, flags.trace, report);
  if (flags.trace) {
    ProbeLayers(*live.engine(), inputs.pool, tally, report);
    std::vector<double> first_rank_ms;
    for (const auto& [snapshot_id, ms] : first_rule_of_thumb_ms) {
      first_rank_ms.push_back(ms);
    }
    report->Add("relief.first_request_ms", "ms", Median(first_rank_ms),
                first_rank_ms.size());
    report->Add("pxql.prepare_ms", "ms", Median(request_prepare_ms),
                request_prepare_ms.size());
    report->Add("result_cache.hit_ratio", "ratio",
                RatioOr0(static_cast<double>(cache_hits),
                         static_cast<double>(latencies.all_ms.size())),
                latencies.all_ms.size());
    AddStorageMetrics(CollectSpans(), serving.recover_span, report);
    report->Add("recovery.ms", "ms", Median(recover_ms), recover_ms.size());
    report->Add("recovery.replayed_batches", "count",
                static_cast<double>(serving.recovery.replayed_batches), 1);
    PX_RETURN_IF_ERROR(FinishTrace(latencies, flags.out_dir, flags.workload,
                                   flags.seed, report));
    const std::string counters_path = px::StrFormat(
        "%s/fs-counters-live_jobs-%llu.json", flags.out_dir.c_str(),
        static_cast<unsigned long long>(flags.seed));
    std::FILE* counters = std::fopen(counters_path.c_str(), "w");
    if (counters == nullptr) {
      return px::Status::IoError("cannot write " + counters_path);
    }
    std::fprintf(counters, "%s\n", traced_fs.CountersJson().c_str());
    if (std::fclose(counters) != 0) {
      return px::Status::IoError("cannot write " + counters_path);
    }
  }
  const std::int64_t probes_done = NowNs();

  // ---- checks. Durability: drop the engine without a final rotation and
  // recover a fresh one from the same directories.
  serving.live.reset();
  {
    px::Result<std::unique_ptr<px::LiveEngine>> recovered =
        px::LiveEngine::Recover(inputs.seed_log, durability, ServingOptions(),
                                ServingPolicy());
    if (recovered.ok()) {
      durability_violations += DurabilityViolations(
          (*recovered)->engine()->log().records(), acknowledged);
    } else {
      report->AddNote("recovery failed: " + recovered.status().ToString());
      durability_violations += acknowledged.size();
    }
  }
  px::SetDefaultEnumerationThreads(1);
  const std::uint64_t mismatched =
      reader_mismatches + CheckOracle(phase.readers, inputs, acknowledged,
                                      report);
  report->AddNote(px::StrFormat(
      "phases: inputs %.1f s, setup %.1f s, timed %.1f s, probes %.1f s, "
      "checks %.1f s",
      (inputs_done - run_start) / 1e9, (start - inputs_done) / 1e9,
      (timed_done - start) / 1e9, (probes_done - timed_done) / 1e9,
      (NowNs() - probes_done) / 1e9));
  report->AddOutcome("explain", served.size(), explain_failed);
  report->AddOutcome("append", phase.appends.size(), append_failed);
  report->AddOutcome("rotate", phase.rotations.size(), rotate_failed);
  report->AddOutcome("oracle_match", served.size() - explain_failed,
                     mismatched);
  // Appended records checked: the tail after each set-up, and every
  // acknowledged append after the final recovery.
  report->AddOutcome(
      "durable_records",
      kSetupRepetitions * kTailBatches + acknowledged.size() -
          inputs.seed_log.size(),
      durability_violations);
  return px::Status::OK();
}

}  // namespace perfbench
