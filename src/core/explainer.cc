#include "core/explainer.h"

#include <algorithm>
#include <set>

#include "common/cancel.h"
#include "core/pair_enumeration.h"
#include "ml/split.h"
#include "pxql/compiled_predicate.h"

namespace perfxplain {

namespace {

/// Percentile rank of `value` within `all` (average rank for ties), in
/// [0, 1]. This is the normalizeScore step of Algorithm 1 (line 11-12):
/// raw precision and generality values are replaced by their percentile
/// ranks so that neither dominates the blended score.
double PercentileRank(double value, const std::vector<double>& all) {
  if (all.empty()) return 0.0;
  std::size_t less = 0;
  std::size_t equal = 0;
  for (double v : all) {
    if (v < value) ++less;
    else if (v == value) ++equal;
  }
  return (static_cast<double>(less) + 0.5 * static_cast<double>(equal)) /
         static_cast<double>(all.size());
}

/// The greedy clause loop of Algorithm 1 is generic over how the training
/// examples are stored. Both backends expose the same contract:
///  - size(): current working-set size;
///  - BestPredicate(f, options): per-feature max-info-gain candidate over
///    the working set, constrained to the pair of interest, carrying the
///    (satisfy, satisfy_target) counts it was scored on;
///  - Filter(candidate): shrink the working set to satisfying examples,
///    returning (kept, kept_target).
///
/// ValueClauseDataset scans materialized Value vectors (the compatibility
/// path); EncodedClauseSearch (ml/split.h) counts with popcounts over
/// per-feature pair-of-interest bitmaps of the integer-coded training
/// matrix and produces bit-identical candidates, gains and scores.
class ValueClauseDataset {
 public:
  ValueClauseDataset(const PairSchema& schema,
                     std::vector<TrainingExample> examples,
                     bool target_expected)
      : schema_(&schema), working_(std::move(examples)) {
    if (!working_.empty()) poi_features_ = working_[0].features;
    // When generating a des' clause the "positive" label whose conditional
    // probability we maximize is `expected`; flip labels so the shared
    // machinery (which treats observed as positive) measures relevance
    // instead of precision (line 6 of Algorithm 1 and its §4.2 variant).
    if (target_expected) {
      for (TrainingExample& example : working_) {
        example.observed = !example.observed;
      }
    }
  }

  std::size_t size() const { return working_.size(); }

  std::optional<SplitCandidate> BestPredicate(
      std::size_t f, const SplitOptions& options) const {
    return BestPredicateForFeature(*schema_, working_, f, poi_features_[f],
                                   options);
  }

  std::pair<std::size_t, std::size_t> Filter(const SplitCandidate& chosen) {
    std::vector<TrainingExample> next;
    next.reserve(working_.size());
    std::size_t target_count = 0;
    for (TrainingExample& example : working_) {
      if (chosen.atom.Eval(example.features)) {
        if (example.observed) ++target_count;
        next.push_back(std::move(example));
      }
    }
    working_ = std::move(next);
    return {working_.size(), target_count};
  }

 private:
  const PairSchema* schema_;
  std::vector<TrainingExample> working_;
  std::vector<Value> poi_features_;
};

/// Shared greedy loop (lines 3-17 of Algorithm 1). See Explainer's class
/// comment for the per-step structure.
template <typename Dataset>
std::vector<ExplanationAtom> GenerateClauseWith(
    Dataset& working, const PairSchema& schema,
    const ExplainerOptions& options, std::size_t width,
    const std::vector<std::size_t>& excluded_raw,
    const std::vector<Atom>& redundant_atoms) {
  std::vector<ExplanationAtom> trace;
  if (working.size() == 0) return trace;
  const std::set<std::size_t> excluded(excluded_raw.begin(),
                                       excluded_raw.end());
  std::set<std::size_t> used_features;

  SplitOptions split_options;
  split_options.constrain_to_pair = true;

  for (std::size_t step = 0; step < width; ++step) {
    // Candidates isolating (almost) nothing but the pair of interest look
    // perfectly precise on the sample yet do not generalize; require a
    // sliver of support.
    split_options.min_support =
        std::max<std::size_t>(3, working.size() / 100);
    // Line 5: best (max info gain) predicate per feature.
    struct Candidate {
      SplitCandidate split;
      std::size_t pair_index;
      double metric = 0.0;      ///< P(target | p, X) over working set
      double generality = 0.0;  ///< P(p | X) over working set
    };
    std::vector<Candidate> candidates;
    for (std::size_t f = 0; f < schema.size(); ++f) {
      ThrowIfInterrupted();
      if (!schema.InLevel(f, options.level)) continue;
      if (!schema.IsDefined(f)) continue;
      const std::size_t raw_index = schema.RawIndexOf(f);
      if (excluded.count(raw_index) > 0) continue;
      if (used_features.count(f) > 0) continue;
      auto split = working.BestPredicate(f, split_options);
      if (!split.has_value()) continue;
      // Atoms every related pair satisfies by construction (they restate
      // the query's despite clause) carry no information.
      bool redundant = false;
      for (const Atom& atom : redundant_atoms) {
        if (atom == split->atom) {
          redundant = true;
          break;
        }
      }
      if (redundant) continue;
      // Lines 6-7: precision (or relevance) and generality of the winner,
      // from the counts it was scored on (min_support keeps in_total > 0).
      Candidate candidate;
      candidate.split = std::move(split).value();
      candidate.pair_index = f;
      candidate.metric = static_cast<double>(candidate.split.in_positive) /
                         static_cast<double>(candidate.split.in_total);
      candidate.generality = static_cast<double>(candidate.split.in_total) /
                             static_cast<double>(working.size());
      candidates.push_back(std::move(candidate));
    }
    if (candidates.empty()) break;

    // Lines 8-14: percentile-rank normalization and weighted blend.
    std::vector<double> metrics;
    std::vector<double> generalities;
    metrics.reserve(candidates.size());
    generalities.reserve(candidates.size());
    for (const Candidate& candidate : candidates) {
      metrics.push_back(candidate.metric);
      generalities.push_back(candidate.generality);
    }
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double score =
          options.normalize_scores
              ? options.precision_weight *
                        PercentileRank(candidates[c].metric, metrics) +
                    (1.0 - options.precision_weight) *
                        PercentileRank(candidates[c].generality,
                                       generalities)
              : options.precision_weight * candidates[c].metric +
                    (1.0 - options.precision_weight) *
                        candidates[c].generality;
      const bool better =
          score > best_score ||
          (score == best_score &&
           (candidates[c].metric > candidates[best].metric ||
            (candidates[c].metric == candidates[best].metric &&
             candidates[c].split.gain > candidates[best].split.gain)));
      if (c == 0 || better) {
        best = c;
        best_score = score;
      }
    }

    // Lines 16-17: extend the clause and keep only satisfying examples.
    ExplanationAtom chosen;
    chosen.atom = candidates[best].split.atom;
    chosen.info_gain = candidates[best].split.gain;
    chosen.score = best_score;
    used_features.insert(candidates[best].pair_index);

    const std::size_t before = working.size();
    const auto [kept, target_count] = working.Filter(candidates[best].split);
    chosen.generality_after =
        before == 0 ? 0.0
                    : static_cast<double>(kept) /
                          static_cast<double>(before);
    chosen.metric_after = kept == 0
                              ? 0.0
                              : static_cast<double>(target_count) /
                                    static_cast<double>(kept);
    trace.push_back(std::move(chosen));
    PX_CHECK(working.size() > 0);  // the pair of interest always satisfies X
  }
  return trace;
}

}  // namespace

namespace {

const ExecutionLog& CheckedLog(const ExecutionLog* log) {
  PX_CHECK(log != nullptr);
  return *log;
}

}  // namespace

Status CheckDefinition1(const CompiledQuery& compiled, std::size_t first,
                        std::size_t second, double sim_fraction) {
  if (!compiled.despite.Eval(first, second, sim_fraction)) {
    return Status::FailedPrecondition(
        "the pair of interest does not satisfy the DESPITE clause");
  }
  if (!compiled.observed.Eval(first, second, sim_fraction)) {
    return Status::FailedPrecondition(
        "the pair of interest does not satisfy the OBSERVED clause");
  }
  if (compiled.expected.Eval(first, second, sim_fraction)) {
    return Status::FailedPrecondition(
        "the pair of interest satisfies the EXPECTED clause; there is "
        "nothing to explain");
  }
  return Status::OK();
}

Explainer::Explainer(const ExecutionLog* log, ExplainerOptions options,
                     const ColumnarLog* columns,
                     const RelatedPairIndexStore* related_pairs)
    : log_(&CheckedLog(log)),
      options_(options),
      schema_(log->schema()),
      related_pairs_(related_pairs) {
  if (columns == nullptr) {
    owned_columnar_ = std::make_unique<ColumnarLog>(*log);
    columnar_ = owned_columnar_.get();
  } else {
    columnar_ = columns;
  }
}

Result<Query> Explainer::PrepareQuery(const Query& query) const {
  Query bound = query;
  PX_RETURN_IF_ERROR(bound.Bind(schema_));
  PX_RETURN_IF_ERROR(bound.Validate());
  if (bound.first_id.empty() || bound.second_id.empty()) {
    return Status::InvalidArgument(
        "query must identify the pair of interest (FOR ... WHERE)");
  }
  auto first = log_->Find(bound.first_id);
  if (!first.ok()) return first.status();
  auto second = log_->Find(bound.second_id);
  if (!second.ok()) return second.status();
  // Definition 1: des(J1,J2) and obs(J1,J2) must hold; exp(J1,J2) must not.
  // Checked on the compiled programs so the whole Explain pipeline stays
  // encoded-only (no Value is ever materialized for a pair feature).
  const CompiledQuery compiled =
      CompiledQuery::Compile(bound, schema_, *columnar_);
  PX_RETURN_IF_ERROR(CheckDefinition1(compiled, first.value(),
                                      second.value(),
                                      options_.pair.sim_fraction));
  return bound;
}

std::vector<std::size_t> Explainer::ExcludedRawFeatures(
    const Query& bound_query) const {
  const std::vector<bool> mask = OutcomeRawFeatureMask(bound_query, schema_);
  std::vector<std::size_t> raw;
  for (std::size_t f = 0; f < mask.size(); ++f) {
    if (mask[f]) raw.push_back(f);
  }
  return raw;
}

Result<std::vector<TrainingExample>> Explainer::BuildExamples(
    const Query& bound_query, std::size_t poi_first,
    std::size_t poi_second) const {
  Rng rng(options_.seed);
  auto examples = BuildTrainingExamples(
      *log_, schema_, bound_query, poi_first, poi_second, options_.pair,
      options_.sampler, rng, options_.balanced_sampling);
  if (!examples.ok() || options_.max_pairs_per_record == 0) return examples;
  return EnforceRecordDiversity(std::move(examples).value(),
                                options_.max_pairs_per_record,
                                /*keep_first=*/true);
}

Result<EncodedDataset> Explainer::BuildEncodedExamples(
    const Query& bound_query, std::size_t poi_first,
    std::size_t poi_second) const {
  return BuildEncodedExamplesWith(bound_query, poi_first, poi_second,
                                  options_, /*indexed=*/false);
}

Result<EncodedDataset> Explainer::BuildEncodedExamplesWith(
    const Query& bound_query, std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options, bool indexed) const {
  const EnumerationOptions enumeration{options.threads};
  if (indexed && related_pairs_ != nullptr) {
    if (const std::shared_ptr<const RelatedPairIndex> index =
            related_pairs_->Acquire(bound_query, options.pair.sim_fraction,
                                    enumeration)) {
      return BuildEncodedExamplesFromIndex(*index, poi_first, poi_second,
                                           options);
    }
  }
  Rng rng(options.seed);
  const CompiledQuery compiled =
      CompiledQuery::Compile(bound_query, schema_, *columnar_);
  auto sampled = SampleRelatedPairs(
      *columnar_, compiled, poi_first, poi_second,
      options.pair.sim_fraction, options.sampler, rng,
      options.balanced_sampling, enumeration);
  if (!sampled.ok()) return sampled.status();
  return EncodeSample(std::move(sampled).value(), options);
}

Result<EncodedDataset> Explainer::BuildEncodedExamplesFromIndex(
    const RelatedPairIndex& index, std::size_t poi_first,
    std::size_t poi_second, const ExplainerOptions& options) const {
  Rng rng(options.seed);
  auto sampled = index.SampleDraws(poi_first, poi_second, options.sampler,
                                   rng, options.balanced_sampling);
  if (!sampled.ok()) return sampled.status();
  return EncodeSample(std::move(sampled).value(), options);
}

EncodedDataset Explainer::EncodeSample(
    std::vector<PairRef> pairs, const ExplainerOptions& options) const {
  if (options.max_pairs_per_record > 0) {
    pairs = EnforceRecordDiversity(std::move(pairs),
                                   options.max_pairs_per_record,
                                   /*keep_first=*/true);
  }
  return EncodedDataset(*columnar_, schema_, pairs,
                        options.pair.sim_fraction);
}

Result<Explanation> Explainer::ExplainPreparedWithExamples(
    const Query& bound, const EncodedDataset& examples,
    const ExplainerOptions& options) const {
  Explanation explanation;
  EncodedClauseSearch working(examples, /*target_expected=*/false);
  explanation.because_trace =
      GenerateClauseWith(working, schema_, options, options.width,
                         ExcludedRawFeatures(bound), bound.despite.atoms());
  explanation.because = ClauseToPredicate(explanation.because_trace);
  if (explanation.because.is_true()) {
    return Status::Internal("no applicable because clause could be built");
  }
  return explanation;
}

std::vector<ExplanationAtom> Explainer::GenerateClause(
    std::vector<TrainingExample> examples, std::size_t width,
    bool target_expected, const std::vector<std::size_t>& excluded_raw,
    const std::vector<Atom>& redundant_atoms) const {
  ValueClauseDataset working(schema_, std::move(examples), target_expected);
  return GenerateClauseWith(working, schema_, options_, width, excluded_raw,
                            redundant_atoms);
}

std::vector<ExplanationAtom> Explainer::GenerateClause(
    const EncodedDataset& examples, std::size_t width, bool target_expected,
    const std::vector<std::size_t>& excluded_raw,
    const std::vector<Atom>& redundant_atoms) const {
  EncodedClauseSearch working(examples, target_expected);
  return GenerateClauseWith(working, schema_, options_, width, excluded_raw,
                            redundant_atoms);
}

Predicate Explainer::ClauseToPredicate(
    const std::vector<ExplanationAtom>& trace) {
  Predicate predicate;
  for (const ExplanationAtom& atom : trace) {
    predicate.Append(atom.atom);
  }
  return predicate;
}

Result<Explanation> Explainer::Explain(const Query& query) const {
  auto bound = PrepareQuery(query);
  if (!bound.ok()) return bound.status();
  return ExplainPrepared(*bound, log_->Find(bound->first_id).value(),
                         log_->Find(bound->second_id).value(), options_);
}

Result<Explanation> Explainer::ExplainPrepared(
    const Query& bound, std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options) const {
  auto examples = BuildEncodedExamplesWith(bound, poi_first, poi_second,
                                           options, /*indexed=*/true);
  if (!examples.ok()) return examples.status();
  return ExplainPreparedWithExamples(bound, examples.value(), options);
}

Result<Predicate> Explainer::GenerateDespite(const Query& query,
                                             std::size_t width) const {
  auto bound = PrepareQuery(query);
  if (!bound.ok()) return bound.status();
  return GenerateDespitePrepared(*bound,
                                 log_->Find(bound->first_id).value(),
                                 log_->Find(bound->second_id).value(), width,
                                 options_);
}

Result<Predicate> Explainer::GenerateDespitePrepared(
    const Query& bound, std::size_t poi_first, std::size_t poi_second,
    std::size_t width, const ExplainerOptions& options) const {
  auto examples = BuildEncodedExamplesWith(bound, poi_first, poi_second,
                                           options, /*indexed=*/true);
  if (!examples.ok()) return examples.status();
  EncodedClauseSearch working(examples.value(), /*target_expected=*/true);
  const std::vector<ExplanationAtom> trace =
      GenerateClauseWith(working, schema_, options, width,
                         ExcludedRawFeatures(bound), bound.despite.atoms());
  return ClauseToPredicate(trace);
}

Result<Explanation> Explainer::ExplainWithAutoDespite(
    const Query& query) const {
  auto bound = PrepareQuery(query);
  if (!bound.ok()) return bound.status();
  return ExplainWithAutoDespitePrepared(
      *bound, log_->Find(bound->first_id).value(),
      log_->Find(bound->second_id).value(), options_);
}

Result<Explanation> Explainer::ExplainWithAutoDespitePrepared(
    const Query& bound, std::size_t poi_first, std::size_t poi_second,
    const ExplainerOptions& options) const {
  auto examples = BuildEncodedExamplesWith(bound, poi_first, poi_second,
                                           options, /*indexed=*/true);
  if (!examples.ok()) return examples.status();

  // des' clause first, truncated at the relevance threshold.
  EncodedClauseSearch despite_working(examples.value(),
                                      /*target_expected=*/true);
  std::vector<ExplanationAtom> despite_trace = GenerateClauseWith(
      despite_working, schema_, options, options.despite_width,
      ExcludedRawFeatures(bound), bound.despite.atoms());
  std::size_t keep = despite_trace.size();
  for (std::size_t i = 0; i < despite_trace.size(); ++i) {
    if (despite_trace[i].metric_after >=
        options.despite_relevance_threshold) {
      keep = i + 1;
      break;
    }
  }
  despite_trace.resize(keep);

  Explanation explanation;
  explanation.despite_trace = despite_trace;
  explanation.despite = ClauseToPredicate(despite_trace);

  // bec clause in the context of des AND des'.
  Query extended = bound;
  extended.despite = extended.despite.And(explanation.despite);
  // The extended shape is request-specific: it is sampled by a scan and
  // never indexed.
  auto extended_examples = BuildEncodedExamplesWith(
      extended, poi_first, poi_second, options, /*indexed=*/false);
  if (!extended_examples.ok()) return extended_examples.status();
  EncodedClauseSearch because_working(extended_examples.value(),
                                      /*target_expected=*/false);
  explanation.because_trace = GenerateClauseWith(
      because_working, schema_, options, options.width,
      ExcludedRawFeatures(extended), extended.despite.atoms());
  explanation.because = ClauseToPredicate(explanation.because_trace);
  if (explanation.because.is_true()) {
    return Status::Internal("no applicable because clause could be built");
  }
  return explanation;
}

}  // namespace perfxplain
