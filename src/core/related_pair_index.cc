#include "core/related_pair_index.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/cancel.h"

namespace perfxplain {

namespace {

void AppendBytes(const void* data, std::size_t size, std::string* key) {
  key->append(static_cast<const char*>(data), size);
}

void AppendString(const std::string& text, std::string* key) {
  const std::uint64_t size = text.size();
  AppendBytes(&size, sizeof(size), key);
  key->append(text);
}

/// Appends an unambiguous encoding of `predicate`'s atoms. Numeric
/// constants are compared by their bits, so a NaN constant still matches
/// itself and -0.0 and +0.0 are separate shapes.
void AppendPredicate(const Predicate& predicate, std::string* key) {
  const std::uint64_t width = predicate.width();
  AppendBytes(&width, sizeof(width), key);
  for (const Atom& atom : predicate.atoms()) {
    AppendString(atom.feature(), key);
    key->push_back(static_cast<char>(atom.op()));
    const Value& constant = atom.constant();
    key->push_back(static_cast<char>(constant.kind()));
    if (constant.is_numeric()) {
      const double number = constant.number();
      AppendBytes(&number, sizeof(number), key);
    } else if (constant.is_nominal()) {
      AppendString(constant.nominal(), key);
    }
  }
}

/// The store key of a query shape: its three bound predicates plus the
/// similarity fraction.
std::string ShapeKey(const Query& bound, double sim_fraction) {
  std::string key;
  AppendPredicate(bound.despite, &key);
  AppendPredicate(bound.observed, &key);
  AppendPredicate(bound.expected, &key);
  AppendBytes(&sim_fraction, sizeof(sim_fraction), &key);
  return key;
}

}  // namespace

RelatedPairIndex::RelatedPairIndex(CandidatePairs candidates,
                                   std::size_t rows)
    : candidates_(std::move(candidates)), rows_(rows) {}

std::size_t RelatedPairIndex::bytes() const {
  return candidates_.bytes() + row_begin_.capacity() * sizeof(std::size_t) +
         (related_.capacity() + observed_.capacity()) * sizeof(std::uint64_t);
}

std::shared_ptr<const RelatedPairIndex> RelatedPairIndex::Build(
    const CompiledQuery& query, std::size_t rows, double sim_fraction,
    const EnumerationOptions& enumeration, std::size_t max_bytes) {
  // An always-false despite clause relates nothing: index no candidates.
  const bool none = query.despite.always_false();
  std::shared_ptr<RelatedPairIndex> index(new RelatedPairIndex(
      CandidatePairs(query.despite, none ? 0 : rows, enumeration.prune),
      rows));
  const CandidatePairs& candidates = index->candidates_;
  const std::vector<std::uint32_t>& first = candidates.first_rows();
  std::vector<std::size_t>& row_begin = index->row_begin_;
  row_begin.assign(first.size() + 1, 0);
  for (std::size_t s = 0; s < first.size(); ++s) {
    row_begin[s + 1] = row_begin[s] + candidates.partners(first[s]).size();
  }
  const std::size_t words = (row_begin.back() + 63) / 64;
  if (index->bytes() + 2 * words * sizeof(std::uint64_t) > max_bytes) {
    return nullptr;
  }

  // Each stripe sets the bits of its contiguous first rows in a local copy
  // of the words they span; stripes own disjoint bits, so OR-ing the
  // copies together is the row-major result whichever thread ran each.
  struct StripeBits {
    RelatedCounts counts;
    std::size_t word_begin = 0;
    std::vector<std::uint64_t> related;
    std::vector<std::uint64_t> observed;
  };
  std::vector<StripeBits> partials;
  const int threads = ResolveEnumerationThreads(enumeration);
  partials.resize(RowStripeCount(first.size(), threads));
  ForEachRowStripe(
      first.size(), threads,
      [&](std::size_t block, std::size_t begin, std::size_t end) {
        StripeBits local;
        local.word_begin = row_begin[begin] / 64;
        const std::size_t word_end = (row_begin[end] + 63) / 64;
        local.related.assign(word_end - local.word_begin, 0);
        local.observed.assign(word_end - local.word_begin, 0);
        for (std::size_t s = begin; s < end; ++s) {
          ThrowIfInterrupted();
          const std::size_t i = first[s];
          std::size_t bit = row_begin[s] - local.word_begin * 64;
          for (std::uint32_t j : candidates.partners(i)) {
            if (i != j) {
              const PairLabel label =
                  ClassifyPairCompiled(query, i, j, sim_fraction);
              const std::uint64_t related = label != PairLabel::kUnrelated;
              const std::uint64_t observed = label == PairLabel::kObserved;
              local.related[bit / 64] |= related << (bit % 64);
              local.observed[bit / 64] |= observed << (bit % 64);
              local.counts.observed += observed;
              local.counts.expected += related - observed;
            }
            ++bit;
          }
        }
        partials[block] = std::move(local);
      });

  index->related_.assign(words, 0);
  index->observed_.assign(words, 0);
  for (const StripeBits& local : partials) {
    index->counts_.observed += local.counts.observed;
    index->counts_.expected += local.counts.expected;
    for (std::size_t w = 0; w < local.related.size(); ++w) {
      index->related_[local.word_begin + w] |= local.related[w];
      index->observed_[local.word_begin + w] |= local.observed[w];
    }
  }
  return index;
}

Result<std::vector<PairRef>> RelatedPairIndex::SampleDraws(
    std::size_t poi_first, std::size_t poi_second,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced) const {
  if (poi_first >= rows_ || poi_second >= rows_ || poi_first == poi_second) {
    return Status::InvalidArgument("pair of interest indexes out of range");
  }
  if (counts_.total() == 0) {
    return Status::FailedPrecondition(
        "no pairs in the log are related to the query");
  }
  const AcceptanceProbabilities p =
      ComputeAcceptance(counts_, sampler_options, balanced);
  const double acceptance[2] = {p.expected, p.observed};
  std::vector<PairRef> sampled;
  sampled.reserve(std::min<std::size_t>(sampler_options.sample_size + 1,
                                        counts_.total() + 1));
  sampled.push_back({poi_first, poi_second, true});
  ForEachRelated([&](std::size_t i, std::size_t j, bool observed) {
    if (i == poi_first && j == poi_second) return;
    if (!rng.Bernoulli(acceptance[observed])) return;
    sampled.push_back({i, j, observed});
  });
  return sampled;
}

RelatedPairIndexStore::RelatedPairIndexStore(const ColumnarLog* columns,
                                             const PairSchema* schema)
    : columns_(columns), schema_(schema) {
  PX_CHECK(columns != nullptr);
  PX_CHECK(schema != nullptr);
}

std::shared_ptr<const RelatedPairIndex> RelatedPairIndexStore::Find(
    const std::string& key) const {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().index;
    }
  }
  return nullptr;
}

std::shared_ptr<const RelatedPairIndex> RelatedPairIndexStore::Acquire(
    const Query& bound, double sim_fraction,
    const EnumerationOptions& enumeration,
    const CompiledQuery* compiled) const {
  const std::string key = ShapeKey(bound, sim_fraction);
  {
    MutexLock lock(mutex_);
    if (std::shared_ptr<const RelatedPairIndex> hit = Find(key)) return hit;
  }
  std::optional<CompiledQuery> own;
  if (compiled == nullptr) {
    own = CompiledQuery::Compile(bound, *schema_, *columns_);
    compiled = &*own;
  }
  const std::size_t budget = BudgetBytes(enumeration.sample_buffer_cap);
  // The scan runs unlocked; an interrupted one throws past the insert.
  std::shared_ptr<const RelatedPairIndex> built = RelatedPairIndex::Build(
      *compiled, columns_->rows(), sim_fraction, enumeration, budget);
  if (built == nullptr) return nullptr;
  builds_.fetch_add(1, std::memory_order_acq_rel);
  MutexLock lock(mutex_);
  // A concurrent first user may have inserted the shape meanwhile; the
  // first insert wins and this identical copy is dropped.
  if (std::shared_ptr<const RelatedPairIndex> raced = Find(key)) return raced;
  entries_.push_front(Entry{key, built});
  bytes_ += built->bytes();
  // built->bytes() <= budget, so eviction stops before reaching it.
  while (bytes_ > budget) {
    bytes_ -= entries_.back().index->bytes();
    entries_.pop_back();
  }
  return built;
}

std::size_t RelatedPairIndexStore::resident_bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

std::size_t RelatedPairIndexStore::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace perfxplain
