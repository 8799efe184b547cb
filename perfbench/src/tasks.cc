// The task-level workloads (tasks_resident, tasks_lowmem): the §6.2
// task log — map tasks of multi-wave jobs — served read-only by one
// closed-loop client with pre-prepared requests. The two workloads share
// the log and the request stream and differ only in the pair-code budget:
// the whole plane fits under the default budget (tasks_resident), or a
// quarter of it does (tasks_lowmem, SimButDiff on the TilePool path).

#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>

#include "common.h"
#include "common/string_util.h"
#include "core/pair_enumeration.h"
#include "harness.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {

namespace px = perfxplain;

namespace {

constexpr std::size_t kPoolSize = 64;
constexpr int kMix[3] = {60, 30, 10};  // PerfXplain, SimButDiff, RuleOfThumb
constexpr double kEvaluateFraction = 0.10;
constexpr int kSetupRepetitions = 3;
constexpr std::size_t kMinExplains = 1000;
constexpr int kCheckWorkers = 4;
/// The held-out log is the test half (§6.1's 50/50 split) of a task log
/// simulated with another seed, so explanations are judged on executions
/// they were not mined from.
constexpr std::uint64_t kHeldOutSeedOffset = 0x9e3779b97f4a7c15ULL;

struct Request {
  std::size_t pair = 0;
  px::Technique technique = px::Technique::kPerfXplain;
  bool evaluate = false;
  std::uint64_t seed = 0;  ///< PerfXplain only; distinct per request

  px::ExplainRequest ToExplainRequest() const {
    px::ExplainRequest request;
    request.technique = technique;
    request.evaluate = evaluate;
    if (technique == px::Technique::kPerfXplain) request.seed = seed;
    return request;
  }
  /// Requests with equal keys must get identical responses.
  std::tuple<std::size_t, int, bool, std::uint64_t> Key() const {
    return {pair, static_cast<int>(technique), evaluate, seed};
  }
};

/// The seeded request stream; request i is the same in every process
/// with the same seed, whichever workload runs it.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed)
      : rng_(seed ^ 0x7a5c3d1e2f4b6a89ULL), seed_base_(rng_.Fork()) {}

  Request Next() {
    Request request;
    request.technique = DrawTechnique(rng_, kMix);
    request.pair = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(kPoolSize) - 1));
    request.evaluate = rng_.Bernoulli(kEvaluateFraction);
    if (request.technique == px::Technique::kPerfXplain) {
      request.seed = seed_base_ + issued_;
    }
    ++issued_;
    return request;
  }

 private:
  px::Rng rng_;
  std::uint64_t seed_base_;
  std::uint64_t issued_ = 0;
};

struct Served {
  Request request;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool traced = false;
  px::Status status;
  px::ExplainResponse response;
};

struct Serving {
  std::unique_ptr<px::Engine> engine;
  std::vector<px::PreparedQuery> prepared;
};

/// Setup as a user pays it: engine construction, preparing the request
/// pool, and one warm request per technique (which builds the pair-code
/// plane or tile pool and runs the RReliefF ranking).
px::Result<Serving> SetUp(const px::ExecutionLog& log,
                          const px::EngineOptions& options,
                          const std::vector<std::string>& pool, bool record,
                          std::vector<double>* prepare_ms) {
  px::ExecutionLog copy = log;
  auto root = ScopedSpan::Root("setup", record);
  Serving serving;
  {
    ScopedSpan span("engine.construct");
    serving.engine = std::make_unique<px::Engine>(std::move(copy), options);
  }
  for (const std::string& pxql : pool) {
    const std::int64_t start = NowNs();
    px::Result<px::PreparedQuery> prepared = [&] {
      ScopedSpan span("pxql.prepare");
      return serving.engine->PrepareText(pxql);
    }();
    prepare_ms->push_back(NsToMs(NowNs() - start));
    if (!prepared.ok()) return prepared.status();
    serving.prepared.push_back(std::move(prepared).value());
  }
  for (px::Technique technique :
       {px::Technique::kPerfXplain, px::Technique::kSimButDiff,
        px::Technique::kRuleOfThumb}) {
    ScopedSpan span("engine.explain");
    px::ExplainRequest request;
    request.technique = technique;
    px::Result<px::ExplainResponse> warm =
        serving.engine->Explain(serving.prepared.front(), request);
    if (!warm.ok()) return warm.status();
  }
  return serving;
}

void AddIdleServingLayers(Report* report) {
  // Read-only workload: nothing is cached, journaled or rotated. Counts
  // are truly zero; times of idle layers are not applicable.
  report->Add("result_cache.hit_ratio", "ratio", 0.0, 0);
  report->Add("result_cache.invalidated_per_rotation", "count", 0.0, 0);
  report->Add("serving.rotations", "count", 0.0, 0);
  report->Add("serving.promote_ms", "ms", std::nullopt, 0);
  report->Add("serving.plane_seeded_ratio", "ratio", 0.0, 0);
  report->Add("serving.pending_rows_max", "count", 0.0, 0);
  report->Add("serving.rotate_failures", "count", 0.0, 0);
  report->Add("storage.fsyncs_per_append", "ratio", 0.0, 0);
  report->Add("storage.fsync_p50_us", "us", std::nullopt, 0);
  report->Add("storage.wal_bytes_per_record", "B", 0.0, 0);
  report->Add("storage.checkpoint_mb_per_rotation", "MB", 0.0, 0);
  report->Add("storage.checkpoint_ms", "ms", std::nullopt, 0);
  report->Add("recovery.ms", "ms", std::nullopt, 0);
  report->Add("recovery.replayed_batches", "count", 0.0, 0);
  report->Add("recovery.bytes_read", "B", 0.0, 0);
}

}  // namespace

px::Status RunTasks(const Flags& flags, Report* report) {
  const std::int64_t run_start = NowNs();
  const bool lowmem = flags.workload == "tasks_lowmem";

  // ---- inputs: the §6.2 task log and a held-out log, both simulated.
  px::bench::HarnessOptions harness;
  harness.trace_seed = flags.seed;
  px::bench::HarnessOptions held_out_harness;
  held_out_harness.trace_seed = flags.seed ^ kHeldOutSeedOffset;
  std::optional<px::bench::Fixture> fixture;
  px::ExecutionLog held_out;
  {
    std::thread held_out_thread([&] {
      held_out =
          px::bench::Fixture::TaskLevel(held_out_harness).Split(0).test;
    });
    fixture.emplace(px::bench::Fixture::TaskLevel(harness));
    held_out_thread.join();
  }
  const px::ExecutionLog& log = fixture->full_log();
  const px::Query base_query = px::bench::WhyLastTaskFasterQuery();
  px::Result<std::vector<std::string>> picked =
      PickPairsOfInterest(log, base_query, kPoolSize);
  if (!picked.ok()) return picked.status();
  const std::vector<std::string> pool = std::move(picked).value();

  px::EngineOptions options;  // default (all-core) parallelism
  const std::size_t plane_bytes =
      px::PairCodeStore::BytesNeeded(log.size(), log.schema().size());
  if (lowmem) options.sim_but_diff.pair_code_budget_bytes = plane_bytes / 4;
  const std::size_t budget = options.sim_but_diff.pair_code_budget_bytes;
  report->AddNote(px::StrFormat(
      "task log rows=%zu features=%zu plane=%.1f MB budget=%.1f MB "
      "pool=%zu held_out_rows=%zu",
      log.size(), log.schema().size(), plane_bytes / 1048576.0,
      budget / 1048576.0, pool.size(), held_out.size()));
  if (!ResetPeakRss()) report->AddNote("peak RSS reset refused by kernel");
  const std::int64_t inputs_done = NowNs();

  // ---- setup, several times; the last one serves the timed phase.
  std::vector<double> setup_s;
  std::vector<double> prepare_ms;
  Serving serving;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    serving = Serving{};  // release the previous engine before timing
    const std::int64_t start = NowNs();
    px::Result<Serving> set_up =
        SetUp(log, options, pool, flags.trace, &prepare_ms);
    if (!set_up.ok()) return set_up.status();
    serving = std::move(set_up).value();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  const px::Engine& engine = *serving.engine;

  // ---- timed phase: one closed-loop client. In the traced run the middle
  // half is traced and the outer quarters are not (A-B-B-A), so tracing
  // overhead is a same-run ratio.
  RequestStream stream(flags.seed);
  std::vector<Served> served;
  served.reserve(4096);
  const std::int64_t span_ns = std::int64_t{flags.seconds} * 1000000000;
  const CpuTimes cpu_before = ReadCpuTimes();
  const std::int64_t start = NowNs();
  const std::int64_t deadline = start + span_ns;
  // On a slow host a run keeps going past its deadline, up to twice its
  // length, until p99 has at least ten samples beyond it.
  const std::int64_t hard_deadline = start + 2 * span_ns;
  for (std::int64_t now = start;
       now < deadline || (served.size() < kMinExplains && now < hard_deadline);
       now = NowNs()) {
    Served item;
    item.request = stream.Next();
    const std::int64_t elapsed = now - start;
    item.traced = flags.trace && elapsed >= span_ns / 4 &&
                  elapsed < span_ns - span_ns / 4;
    const px::ExplainRequest request = item.request.ToExplainRequest();
    item.start_ns = NowNs();
    px::Result<px::ExplainResponse> response = [&] {
      auto root = ScopedSpan::Root("request", item.traced);
      ScopedSpan span("engine.explain");
      return engine.Explain(serving.prepared[item.request.pair], request);
    }();
    item.end_ns = NowNs();
    if (response.ok()) {
      item.response = std::move(response).value();
    } else {
      item.status = response.status();
    }
    served.push_back(std::move(item));
  }
  const std::int64_t end = served.back().end_ns;
  const std::optional<double> peak_rss_mb = PeakRssMb();
  AddStealNote(cpu_before, ReadCpuTimes(), report);
  const std::int64_t timed_done = NowNs();

  ClientLatencies latencies;
  ResponseTally tally;
  std::uint64_t explain_failed = 0;
  for (const Served& item : served) {
    if (!item.status.ok()) {
      ++explain_failed;
      continue;
    }
    latencies.Add(item.request.technique,
                  NsToMs(item.end_ns - item.start_ns), item.traced);
    tally.Add(item.response);
  }
  AddServingMetrics(setup_s, latencies,
                    static_cast<double>(end - start) / 1e9, peak_rss_mb,
                    report);
  for (const char* name : {"append_p50_us", "append_p90_us"}) {
    report->Add(name, "us", std::nullopt, 0);
  }
  for (const char* name : {"freshness_p50_ms", "freshness_p90_ms"}) {
    report->Add(name, "ms", std::nullopt, 0);
  }

  // ---- per-layer probes (traced run), after the timed phase so they do
  // not perturb it.
  if (flags.trace) {
    report->Add("pxql.prepare_ms", "ms", Median(prepare_ms),
                prepare_ms.size());
    ProbeLayers(engine, pool, tally, report);
    AddIdleServingLayers(report);
  }
  const std::int64_t probes_done = NowNs();

  // ---- output oracle: every response against a cold single-threaded
  // engine given the same request. Identical requests must get identical
  // responses, so each distinct request is answered once. tasks_resident
  // and tasks_lowmem issue the same request stream and are checked
  // against the same reference, so their responses also equal each other.
  px::SetDefaultEnumerationThreads(1);
  px::Engine oracle(log, ColdSingleThreadedOptions());
  std::vector<px::PreparedQuery> oracle_prepared;
  for (const std::string& pxql : pool) {
    px::Result<px::PreparedQuery> prepared = oracle.PrepareText(pxql);
    if (!prepared.ok()) return prepared.status();
    oracle_prepared.push_back(std::move(prepared).value());
  }
  std::map<std::tuple<std::size_t, int, bool, std::uint64_t>,
           std::vector<std::size_t>>
      by_key;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i].status.ok()) by_key[served[i].request.Key()].push_back(i);
  }
  std::vector<const std::vector<std::size_t>*> groups;
  for (const auto& [key, indices] : by_key) groups.push_back(&indices);
  std::vector<std::uint64_t> mismatches(groups.size(), 0);
  ParallelFor(groups.size(), kCheckWorkers, [&](std::size_t g) {
    const std::vector<std::size_t>& indices = *groups[g];
    const Request& request = served[indices.front()].request;
    px::Result<px::ExplainResponse> expected = oracle.Explain(
        oracle_prepared[request.pair], request.ToExplainRequest());
    for (std::size_t i : indices) {
      if (!expected.ok() || !SameResult(*expected, served[i].response)) {
        ++mismatches[g];
      }
    }
  });
  std::uint64_t mismatched = 0;
  for (std::uint64_t count : mismatches) mismatched += count;
  report->AddOutcome("explain", served.size(), explain_failed);
  report->AddOutcome("oracle_match", served.size() - explain_failed,
                     mismatched);
  report->AddNote(px::StrFormat("oracle answered %zu distinct requests",
                                groups.size()));

  // ---- explanation quality: precision and generality over the held-out
  // log, averaged over distinct PerfXplain explanations.
  std::map<std::string, const px::Explanation*> distinct;
  for (const Served& item : served) {
    if (item.status.ok() &&
        item.request.technique == px::Technique::kPerfXplain) {
      distinct.emplace(item.response.explanation.ToString(),
                       &item.response.explanation);
    }
  }
  std::vector<const px::Explanation*> explanations;
  for (const auto& [text, explanation] : distinct) {
    explanations.push_back(explanation);
  }
  std::vector<double> precision(explanations.size(), 0.0);
  std::vector<double> generality(explanations.size(), 0.0);
  std::vector<std::uint8_t> evaluated(explanations.size(), 0);
  ParallelFor(explanations.size(), kCheckWorkers, [&](std::size_t i) {
    px::Result<px::ExplanationMetrics> metrics = oracle.EvaluateOn(
        held_out, base_query, *explanations[i]);
    if (!metrics.ok()) return;
    precision[i] = metrics->precision;
    generality[i] = metrics->generality;
    evaluated[i] = 1;
  });
  std::uint64_t evaluate_failed = 0;
  for (std::uint8_t ok : evaluated) evaluate_failed += ok ? 0 : 1;
  report->AddOutcome("held_out_evaluate", explanations.size(),
                     evaluate_failed);
  const auto mean = [](const std::vector<double>& values)
      -> std::optional<double> {
    if (values.empty()) return std::nullopt;
    double sum = 0.0;
    for (double value : values) sum += value;
    return sum / static_cast<double>(values.size());
  };
  report->Add("precision", "ratio", mean(precision), precision.size());
  report->AddNote(px::StrFormat(
      "phases: inputs %.1f s, setup %.1f s, timed %.1f s, probes %.1f s, "
      "checks %.1f s",
      (inputs_done - run_start) / 1e9, (start - inputs_done) / 1e9,
      (timed_done - start) / 1e9, (probes_done - timed_done) / 1e9,
      (NowNs() - probes_done) / 1e9));
  report->Add("generality", "ratio", mean(generality), generality.size());

  if (flags.trace) {
    PX_RETURN_IF_ERROR(FinishTrace(latencies, flags.out_dir, flags.workload,
                                   flags.seed, report));
  }
  return px::Status::OK();
}

}  // namespace perfbench
