#ifndef PERFXPLAIN_CORE_PAIR_ENUMERATION_H_
#define PERFXPLAIN_CORE_PAIR_ENUMERATION_H_

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/status.h"
#include "features/pair_features.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "log/execution_log.h"
#include "ml/sampler.h"
#include "pxql/compiled_predicate.h"
#include "pxql/query.h"

namespace perfxplain {

/// Invokes `fn` for every ordered pair (i, j), i != j, of records in `log`
/// with a lazy feature view. Enumeration is row-major and deterministic.
/// `fn` returning false stops the enumeration early.
///
/// Compat layer: this is the seed enumeration the columnar scans are
/// pinned against (see docs/ARCHITECTURE.md for the full boundary); no
/// production path calls it — only equivalence tests, the in-binary
/// bench_micro baselines, and the legacy technique entry points.
///
/// The callable is a template parameter so tight callers inline; the
/// std::function overload below remains for type-erased call sites.
template <typename Fn>
void ForEachOrderedPair(const ExecutionLog& log, const PairSchema& schema,
                        const PairFeatureOptions& options, Fn&& fn) {
  const std::size_t n = log.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      PairFeatureView view(&schema, &log.at(i), &log.at(j), &options);
      if (!fn(i, j, view)) return;
    }
  }
}

void ForEachOrderedPair(
    const ExecutionLog& log, const PairSchema& schema,
    const PairFeatureOptions& options,
    const std::function<bool(std::size_t, std::size_t,
                             const PairFeatureView&)>& fn);

/// Classification of one pair with respect to a query (Definitions 7-9).
enum class PairLabel {
  kUnrelated,  ///< fails des, or satisfies neither obs nor exp
  kObserved,   ///< des && obs
  kExpected,   ///< des && exp
};

/// Labels the pair via lazy evaluation (des first, so unrelated pairs cost
/// only the des atoms).
PairLabel ClassifyPair(const Query& bound_query, const PairFeatureView& view);

/// Labels the pair of rows (i, j) of the query's compiled-against log —
/// the columnar equivalent of ClassifyPair, allocation-free.
PairLabel ClassifyPairCompiled(const CompiledQuery& query, std::size_t i,
                               std::size_t j, double sim_fraction);

/// Controls the row-blocked parallel enumeration of the columnar fast
/// path. Results are bitwise identical for every thread count: per-thread
/// partial results are merged in row order and all sampling randomness is
/// replayed serially.
struct EnumerationOptions {
  /// 0 uses the process-wide default (SetDefaultEnumerationThreads, itself
  /// defaulting to the hardware concurrency).
  int threads = 0;

  /// Max related pairs SampleRelatedPairs may buffer during its counting
  /// pass (~24 bytes each). Under the cap, sampling replays the draws from
  /// the buffer (one scan total); above it, the buffer is discarded and a
  /// second, streaming scan performs the draws with O(accepted) memory.
  /// Both paths produce identical results. 0 forces the streaming path.
  std::size_t sample_buffer_cap = std::size_t{1} << 21;

  /// Candidate pruning: derive the despite program's PairSelection
  /// (CompiledPredicate::DeriveSelection — row filters plus the equi-join
  /// partition on nominal isSame = T keys) and visit only each row's
  /// candidate partners instead of all n² pairs. Pruned pairs all fail des
  /// (they are unrelated and touch no tally), so results are bitwise
  /// identical either way; the flag exists for the equivalence tests and
  /// the BM_SelectiveQueryPruning / BM_EquiJoinPruning baselines.
  bool prune = true;
};

/// Overrides the process-wide default thread count (0 restores "hardware
/// concurrency"). Thread count is observation-free: it never changes any
/// result, only wall-clock time.
void SetDefaultEnumerationThreads(int threads);

/// The positive thread count `options.threads` resolves to.
int ResolveEnumerationThreads(const EnumerationOptions& options);

/// Stripes per worker thread: claimed dynamically, so a skewed stripe (a
/// partition's large group) or a worker started late costs little.
inline constexpr std::size_t kStripesPerThread = 4;

/// Number of stripes ForEachRowStripe will actually use: one for a single
/// thread, else kStripesPerThread per thread, clamped to the row count.
/// Size per-stripe partial-result buffers with this.
inline std::size_t RowStripeCount(std::size_t rows, int threads) {
  const std::size_t t = static_cast<std::size_t>(threads > 1 ? threads : 1);
  return std::min<std::size_t>(t == 1 ? 1 : t * kStripesPerThread,
                               std::max<std::size_t>(rows, 1));
}

/// Runs body(stripe_index, row_begin, row_end) over RowStripeCount
/// contiguous row stripes covering [0, rows). With more than one stripe,
/// the calling thread and up to `threads` - 1 workers claim stripes from a
/// shared counter until none is left. Stripes ascend with stripe_index,
/// so per-stripe partial results merged in stripe order reproduce the
/// row-major order whichever thread ran each stripe. An exception thrown
/// by any stripe stops further claims and is rethrown on the calling
/// thread after all workers join. The calling thread's ExecContext (if
/// any) is re-installed in every worker, so cancellation checkpoints
/// inside `body` see the request's token and deadline across stripe
/// boundaries. Shared by the counting scans here and in metrics.cc.
///
/// Concurrency model (out of scope for the thread-safety analysis, which
/// checks lock-guarded state only): workers write disjoint per-stripe
/// partials and the join below is the sole publication point — no lock,
/// and no shared mutable state beyond the relaxed stripe counter, so there
/// is nothing to annotate. The bitwise thread-invariance suites and the
/// TSan CI job enforce this invariant; any new shared mutable state added
/// to a stripe body must either be a per-stripe partial merged after the
/// join or hold an annotated px::Mutex.
template <typename Body>
void ForEachRowStripe(std::size_t rows, int threads, Body&& body) {
  const std::size_t stripes = RowStripeCount(rows, threads);
  if (stripes <= 1) {
    body(std::size_t{0}, std::size_t{0}, rows);
    return;
  }
  const ExecContext* exec_context = CurrentExecContext();
  const std::size_t chunk = (rows + stripes - 1) / stripes;
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(stripes);
  const auto claim_stripes = [&] {
    for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
         s < stripes; s = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t begin = s * chunk;
      const std::size_t end = std::min(rows, begin + chunk);
      if (begin >= end) continue;
      try {
        body(s, begin, end);
      } catch (...) {
        errors[s] = std::current_exception();
        next.store(stripes, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> workers;
  const std::size_t worker_count =
      std::min(stripes, static_cast<std::size_t>(threads)) - 1;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back([&claim_stripes, exec_context] {
      ScopedExecContext scoped(exec_context);
      claim_stripes();
    });
  }
  // The calling thread claims stripes too, concurrently with the workers,
  // so `threads` means what it says.
  claim_stripes();
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// Row-blocked scan over all ordered pairs (i, j), i != j: resizes
/// `partials` to the stripe count and invokes per_pair(partials[stripe],
/// i, j) for every pair of the stripe. The caller merges the partials in
/// index (= row) order. Shared by the counting scans here and in
/// metrics.cc.
template <typename Partial, typename PerPair>
void ScanOrderedPairs(std::size_t rows, const EnumerationOptions& enumeration,
                      std::vector<Partial>& partials, PerPair&& per_pair) {
  const int threads = ResolveEnumerationThreads(enumeration);
  partials.assign(RowStripeCount(rows, threads), Partial{});
  ForEachRowStripe(rows, threads,
                   [&](std::size_t block, std::size_t begin,
                       std::size_t end) {
                     // Accumulate into a stripe-local partial so counters
                     // stay in registers; store once at stripe end.
                     Partial local{};
                     for (std::size_t i = begin; i < end; ++i) {
                       ThrowIfInterrupted();
                       for (std::size_t j = 0; j < rows; ++j) {
                         if (i != j) per_pair(local, i, j);
                       }
                     }
                     partials[block] = std::move(local);
                   });
}

/// The candidate iterator behind every despite-driven pair scan: for each
/// first row, ascending, the ascending partners it may pair with — the
/// despite program's PairSelection when pruning, else all rows. Candidates
/// come out in row-major order and only pairs failing des are skipped, so
/// every tally, related-pair list, sampling draw and skip count is bitwise
/// identical to the full scan. Built per scan, in O(rows). The diagonal
/// (i, i) may appear among the candidates; callers skip it.
class CandidatePairs {
 public:
  CandidatePairs(const CompiledPredicate& despite, std::size_t rows,
                 bool prune);

  /// True when nothing is pruned: every ordered pair is a candidate.
  bool all_pairs() const { return !selection_.constrained; }
  /// Rows that may come first in a candidate pair, ascending.
  const std::vector<std::uint32_t>& first_rows() const {
    return selection_.first_rows;
  }
  /// The ascending candidate partners of first row `i`.
  RowRange partners(std::size_t i) const { return selection_.partners(i); }
  /// Heap bytes of the selection's row lists and partition.
  std::size_t bytes() const;

 private:
  PairSelection selection_;
};

/// Row-blocked scan over the despite program's candidate pairs
/// (CandidatePairs, pruned when `enumeration.prune`): stripes cover
/// contiguous chunks of the first rows (ascending, so partials merged in
/// stripe order reproduce the row-major result), the inner loop walks each
/// row's partners, and the diagonal is skipped. Same contract as
/// ScanOrderedPairs — and bitwise-identical partial tallies — over the
/// candidate subset: pruned pairs fail des and contribute nothing.
template <typename Partial, typename PerPair>
void ScanDespitePairs(const CompiledPredicate& despite, std::size_t rows,
                      const EnumerationOptions& enumeration,
                      std::vector<Partial>& partials, PerPair&& per_pair) {
  const CandidatePairs candidates(despite, rows, enumeration.prune);
  const int threads = ResolveEnumerationThreads(enumeration);
  const std::vector<std::uint32_t>& first = candidates.first_rows();
  partials.assign(RowStripeCount(first.size(), threads), Partial{});
  ForEachRowStripe(first.size(), threads,
                   [&](std::size_t block, std::size_t begin,
                       std::size_t end) {
                     Partial local{};
                     for (std::size_t s = begin; s < end; ++s) {
                       ThrowIfInterrupted();
                       const std::size_t i = first[s];
                       for (std::uint32_t j : candidates.partners(i)) {
                         if (i != j) per_pair(local, i, j);
                       }
                     }
                     partials[block] = std::move(local);
                   });
}

/// Counts of related pairs by label.
struct RelatedCounts {
  std::size_t observed = 0;
  std::size_t expected = 0;
  std::size_t total() const { return observed + expected; }
};

/// One pass over all ordered pairs counting Definition 8/9 labels.
RelatedCounts CountRelatedPairs(const ExecutionLog& log,
                                const PairSchema& schema,
                                const Query& bound_query,
                                const PairFeatureOptions& options);

/// Columnar fast path of CountRelatedPairs: row-blocked and multi-threaded
/// over a prebuilt ColumnarLog and compiled query.
RelatedCounts CountRelatedPairs(const ColumnarLog& columns,
                                const CompiledQuery& query,
                                double sim_fraction,
                                const EnumerationOptions& enumeration = {});

/// All ordered pairs related to the query (Definition 7), in row-major
/// order, labeled observed/expected. Row-blocked parallel scan; per-block
/// results are concatenated in block order, so the output is independent
/// of the thread count.
std::vector<PairRef> CollectRelatedPairs(
    const ColumnarLog& columns, const CompiledQuery& query,
    double sim_fraction, const EnumerationOptions& enumeration = {});

/// The pair-of-interest-independent product of SampleRelatedPairs'
/// counting scan: the Definition 8/9 label counts plus — unless the
/// buffer cap overflowed — every related pair in row-major order. One
/// scan of a query *shape* serves any number of pairs of interest:
/// Engine::ExplainBatch runs it once per group of structurally identical
/// PerfXplain queries and replays the sampling per request.
struct RelatedPairScan {
  RelatedCounts counts;
  /// Row-major related pairs; empty and meaningless when `overflowed`.
  std::vector<PairRef> related;
  /// True when more than EnumerationOptions::sample_buffer_cap pairs were
  /// related: the buffer was discarded and callers must fall back to the
  /// streaming draw scan (plain SampleRelatedPairs).
  bool overflowed = false;
};

/// The counting pass of SampleRelatedPairs, exposed so the scan can be
/// shared across queries of one shape. Selection-pruned like every
/// despite-first scan.
RelatedPairScan ScanRelatedPairs(const ColumnarLog& columns,
                                 const CompiledQuery& query,
                                 double sim_fraction,
                                 const EnumerationOptions& enumeration = {});

/// The §4.3 per-label acceptance probabilities: balanced sampling aims
/// m/2 examples per label (clamped to 1), uniform sampling m overall. One
/// definition shared by every draw replay (the buffered scan, the
/// streaming fallback and RelatedPairIndex), so they can never drift
/// apart.
struct AcceptanceProbabilities {
  double observed = 0.0;
  double expected = 0.0;
};

AcceptanceProbabilities ComputeAcceptance(const RelatedCounts& counts,
                                          const SamplerOptions& sampler_options,
                                          bool balanced);

/// The serial §4.3 acceptance replay of SampleRelatedPairs over an
/// already-collected scan (which must not be overflowed): computes the
/// balanced acceptance probabilities from the counts and draws one
/// Bernoulli per related pair (except the pair of interest) in row-major
/// order — bit-identical to SampleRelatedPairs over the same log and
/// query for the same Rng. `rows` is the scanned log's row count (pair-of-
/// interest bounds check only).
Result<std::vector<PairRef>> ReplaySampleDraws(
    const RelatedPairScan& scan, std::size_t rows, std::size_t poi_first,
    std::size_t poi_second, const SamplerOptions& sampler_options, Rng& rng,
    bool balanced = true);

/// constructTrainingExamples + sample (lines 1-2 of Algorithm 1) on the
/// columnar fast path: collects related pairs, then serially replays the
/// §4.3 balanced-sampling acceptance draws over them in row-major order
/// (bit-identical to the legacy Value path for the same Rng seed). The
/// pair of interest is always first.
Result<std::vector<PairRef>> SampleRelatedPairs(
    const ColumnarLog& columns, const CompiledQuery& query,
    std::size_t poi_first, std::size_t poi_second, double sim_fraction,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced = true,
    const EnumerationOptions& enumeration = {});

/// constructTrainingExamples + sample (lines 1-2 of Algorithm 1): labels
/// every ordered pair, keeps related ones with the balanced-sampling
/// acceptance probabilities of §4.3, and materializes the kept pairs'
/// feature vectors. The pair of interest (poi_first, poi_second) — which by
/// Definition 1 performs as observed — is always included, as the first
/// example.
/// When `balanced` is false the §4.3 label-balancing acceptance
/// probabilities are replaced by a single uniform probability m/|related|
/// (ablation of the balanced-sampling design decision).
Result<std::vector<TrainingExample>> BuildTrainingExamples(
    const ExecutionLog& log, const PairSchema& schema,
    const Query& bound_query, std::size_t poi_first, std::size_t poi_second,
    const PairFeatureOptions& pair_options,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced = true);

/// Finds a pair of interest for the query: an ordered pair satisfying
/// des AND obs (and therefore, by Definition 1, not exp). `skip` ordered
/// pairs matching the condition are passed over first, so callers can pick
/// different exemplars. Returns (first, second) record indexes.
Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ExecutionLog& log, const PairSchema& schema,
    const Query& bound_query, const PairFeatureOptions& options,
    std::size_t skip = 0);

/// Columnar fast path of FindPairOfInterest. The scan is serial (the
/// expected exit is early) but each pair test runs the compiled program.
Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ColumnarLog& columns, const CompiledQuery& query,
    double sim_fraction, std::size_t skip = 0);

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_PAIR_ENUMERATION_H_
