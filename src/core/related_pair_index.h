#ifndef PERFXPLAIN_CORE_RELATED_PAIR_INDEX_H_
#define PERFXPLAIN_CORE_RELATED_PAIR_INDEX_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/pair_enumeration.h"
#include "features/pair_feature_kernel.h"
#include "features/pair_schema.h"
#include "log/columnar.h"
#include "ml/sampler.h"
#include "pxql/compiled_predicate.h"
#include "pxql/query.h"

namespace perfxplain {

/// The pairs related to one query *shape* (Definition 7) over one log: what
/// one ScanDespitePairs classification produces, kept so later requests of
/// the shape skip it. Which pairs are related depends only on the log, the
/// bound des/obs/exp predicates and the similarity fraction — never on the
/// pair of interest or the sampling seed — so one index serves every
/// PerfXplain request and every Evaluate of the shape.
///
/// Layout: the despite program's CandidatePairs selection, plus two
/// bitsets over the candidates in row-major order (first rows ascending,
/// each row's partners ascending; the diagonal keeps a zero bit). Bit b of
/// `related` is set when candidate b satisfies des AND (obs OR exp); bit b
/// of `observed` when it satisfies des AND obs. First row s owns the bits
/// [row_begin[s], row_begin[s + 1]). A candidate costs 2 bits, so the task
/// shape of §6.2 (about 26 K candidates) takes a few KB beside its
/// selection.
///
/// Immutable once built; any number of threads may read one concurrently.
class RelatedPairIndex {
 public:
  /// Classifies every candidate pair of `query` (compiled against a log of
  /// `rows` rows) with the row-striped parallel scan on
  /// `enumeration.threads` workers; the bits are identical for every
  /// thread count and pruning choice. Returns nullptr, without scanning,
  /// when the index would take more than `max_bytes`. Checkpoints once per
  /// first row: an interrupted build throws InterruptedError and leaves
  /// nothing behind.
  static std::shared_ptr<const RelatedPairIndex> Build(
      const CompiledQuery& query, std::size_t rows, double sim_fraction,
      const EnumerationOptions& enumeration, std::size_t max_bytes);

  /// The Definition 8/9 label counts of the related pairs.
  const RelatedCounts& counts() const { return counts_; }
  /// Candidate pairs the build classified (the diagonal included).
  std::size_t candidate_count() const { return row_begin_.back(); }
  /// Heap bytes held: selection, bit offsets and both bitsets.
  std::size_t bytes() const;

  /// Calls fn(i, j, observed) for every related pair in row-major order —
  /// the order of ScanRelatedPairs' list. Walks the related bitset a word
  /// at a time; unrelated candidates cost nothing.
  template <typename Fn>
  void ForEachRelated(Fn&& fn) const {
    const std::vector<std::uint32_t>& first = candidates_.first_rows();
    std::size_t s = 0;
    std::size_t row_start = 0;
    std::size_t row_end = first.empty() ? 0 : row_begin_[1];
    const std::uint32_t* partners =
        first.empty() ? nullptr : candidates_.partners(first[0]).begin();
    for (std::size_t w = 0; w < related_.size(); ++w) {
      std::uint64_t bits = related_[w];
      const std::uint64_t observed = observed_[w];
      while (bits != 0) {
        const int b = kernel::CountTrailingZeros(bits);
        bits &= bits - 1;
        const std::size_t position = w * 64 + static_cast<std::size_t>(b);
        if (position >= row_end) {
          do {
            ++s;
          } while (position >= row_begin_[s + 1]);
          row_start = row_begin_[s];
          row_end = row_begin_[s + 1];
          partners = candidates_.partners(first[s]).begin();
        }
        fn(std::size_t{first[s]},
           std::size_t{partners[position - row_start]},
           ((observed >> b) & 1) != 0);
      }
    }
  }

  /// The serial §4.3 acceptance draws of SampleRelatedPairs over the index:
  /// one Bernoulli per related pair except the pair of interest, in
  /// row-major order, so the sample is bit-identical to SampleRelatedPairs
  /// over the same log and query for the same Rng. The pair of interest
  /// comes first.
  Result<std::vector<PairRef>> SampleDraws(
      std::size_t poi_first, std::size_t poi_second,
      const SamplerOptions& sampler_options, Rng& rng,
      bool balanced = true) const;

 private:
  RelatedPairIndex(CandidatePairs candidates, std::size_t rows);

  CandidatePairs candidates_;
  std::size_t rows_ = 0;
  /// Bit offset of each first row's candidates; first_rows().size() + 1
  /// entries, the last one the candidate count.
  std::vector<std::size_t> row_begin_;
  std::vector<std::uint64_t> related_;
  std::vector<std::uint64_t> observed_;
  RelatedCounts counts_;
};

/// The snapshot-level cache of RelatedPairIndex entries, one per query
/// shape: the bound des/obs/exp predicates (constants compared bit for bit)
/// plus the similarity fraction. Built lazily on a shape's first
/// Acquire, like the PairCodeStore's planes, and shared read-only by every
/// request over the snapshot afterwards.
///
/// Memory: entries are charged their bytes() against BudgetBytes of the
/// caller's EnumerationOptions::sample_buffer_cap (2 bits per pair the
/// sample buffer may hold: 512 KiB at the default cap) and evicted least
/// recently used first. A shape too large for the whole budget is never
/// built. Since a candidate costs 2 bits, an indexed shape has at most
/// sample_buffer_cap candidates and so never overflows the sample buffer;
/// shapes that would are left to the callers' scan paths.
///
/// Thread safety: Acquire is const and safe from any number of threads.
/// The entry list is the store's one mutex-guarded member; the scan runs
/// outside the lock, so concurrent first users of a shape may each build
/// it and the first to insert wins (the others' copies are dropped, and
/// every copy is bitwise identical). Callers hold entries by shared_ptr,
/// so an eviction never frees an index in use.
class RelatedPairIndexStore {
 public:
  /// `columns` and `schema` must outlive the store (the LogSnapshot owns
  /// all three).
  RelatedPairIndexStore(const ColumnarLog* columns, const PairSchema* schema);

  RelatedPairIndexStore(const RelatedPairIndexStore&) = delete;
  RelatedPairIndexStore& operator=(const RelatedPairIndexStore&) = delete;

  /// The byte budget of all entries under `sample_buffer_cap`.
  static std::size_t BudgetBytes(std::size_t sample_buffer_cap) {
    return sample_buffer_cap / 4;
  }

  /// The index of `bound`'s shape (its predicates bound to the store's
  /// schema) under `sim_fraction`, building it on first use with
  /// `enumeration`'s threads and pruning. `compiled`, when given, must be
  /// `bound` compiled against the store's columns; otherwise a miss
  /// compiles it. Returns nullptr when the shape does not fit the budget.
  /// Throws InterruptedError when the request's deadline or cancel fires
  /// mid-build; nothing is inserted then.
  std::shared_ptr<const RelatedPairIndex> Acquire(
      const Query& bound, double sim_fraction,
      const EnumerationOptions& enumeration,
      const CompiledQuery* compiled = nullptr) const PX_EXCLUDES(mutex_);

  /// Number of completed index builds (scans) so far, inserted or not. A
  /// request that leaves it unchanged did not classify a pair.
  std::uint64_t build_count() const {
    return builds_.load(std::memory_order_acquire);
  }

  /// Bytes of the resident entries, and their number.
  std::size_t resident_bytes() const PX_EXCLUDES(mutex_);
  std::size_t size() const PX_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const RelatedPairIndex> index;
  };

  /// The entry of `key`, moved to the front of the recency list; nullptr
  /// when absent.
  std::shared_ptr<const RelatedPairIndex> Find(const std::string& key) const
      PX_REQUIRES(mutex_);

  const ColumnarLog* columns_;
  const PairSchema* schema_;
  mutable Mutex mutex_;  ///< guards `entries_` and `bytes_`
  /// Most recently used first.
  mutable std::list<Entry> entries_ PX_GUARDED_BY(mutex_);
  mutable std::size_t bytes_ PX_GUARDED_BY(mutex_) = 0;
  mutable std::atomic<std::uint64_t> builds_{0};
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_CORE_RELATED_PAIR_INDEX_H_
