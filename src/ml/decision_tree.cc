#include "ml/decision_tree.h"

#include <algorithm>

#include "common/cancel.h"
#include "ml/split.h"

namespace perfxplain {

Status DecisionTree::Fit(const PairSchema& schema,
                         const std::vector<TrainingExample>& examples,
                         const TreeOptions& options) {
  if (examples.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero examples");
  }
  nodes_.clear();
  std::vector<std::size_t> indices(examples.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  Build(schema, examples, std::move(indices), options, 0);
  return Status::OK();
}

Status DecisionTree::Fit(const PairSchema& schema,
                         const EncodedDataset& examples,
                         const TreeOptions& options) {
  if (examples.rows() == 0) {
    return Status::InvalidArgument("cannot fit a tree on zero examples");
  }
  nodes_.clear();
  std::vector<std::uint32_t> rows(examples.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<std::uint32_t>(i);
  }
  BuildEncoded(schema, examples, std::move(rows), options, 0);
  return Status::OK();
}

std::size_t DecisionTree::BuildEncoded(const PairSchema& schema,
                                       const EncodedDataset& examples,
                                       std::vector<std::uint32_t> rows,
                                       const TreeOptions& options,
                                       std::size_t depth) {
  ThrowIfInterrupted();
  const std::size_t node_index = nodes_.size();
  nodes_.emplace_back();
  const std::vector<std::uint8_t>& labels = examples.labels();
  std::size_t positives = 0;
  for (std::uint32_t r : rows) {
    if (labels[r] != 0) ++positives;
  }
  nodes_[node_index].support = rows.size();
  nodes_[node_index].probability =
      rows.empty() ? 0.0
                   : static_cast<double>(positives) /
                         static_cast<double>(rows.size());

  const bool pure = positives == 0 || positives == rows.size();
  if (pure || depth >= options.max_depth ||
      rows.size() < 2 * options.min_leaf) {
    return node_index;
  }

  std::optional<SplitCandidate> best;
  for (std::size_t f = 0; f < schema.size(); ++f) {
    auto candidate = BestPredicateForFeatureEncoded(
        examples, rows, labels, f, /*min_support=*/1);
    if (candidate.has_value() &&
        (!best.has_value() || candidate->gain > best->gain)) {
      best = std::move(candidate);
    }
  }
  if (!best.has_value() || best->gain < options.min_gain) {
    return node_index;
  }

  const EncodedAtomTest test(examples, best->atom);
  std::vector<std::uint32_t> yes_rows;
  std::vector<std::uint32_t> no_rows;
  for (std::uint32_t r : rows) {
    if (test.Matches(examples, r)) {
      yes_rows.push_back(r);
    } else {
      no_rows.push_back(r);
    }
  }
  if (yes_rows.size() < options.min_leaf ||
      no_rows.size() < options.min_leaf) {
    return node_index;
  }

  nodes_[node_index].atom = best->atom;
  const std::size_t yes_child =
      BuildEncoded(schema, examples, std::move(yes_rows), options, depth + 1);
  const std::size_t no_child =
      BuildEncoded(schema, examples, std::move(no_rows), options, depth + 1);
  nodes_[node_index].yes = yes_child;
  nodes_[node_index].no = no_child;
  return node_index;
}

std::size_t DecisionTree::Build(const PairSchema& schema,
                                const std::vector<TrainingExample>& examples,
                                std::vector<std::size_t> indices,
                                const TreeOptions& options,
                                std::size_t depth) {
  ThrowIfInterrupted();
  const std::size_t node_index = nodes_.size();
  nodes_.emplace_back();
  std::size_t positives = 0;
  for (std::size_t i : indices) {
    if (examples[i].observed) ++positives;
  }
  nodes_[node_index].support = indices.size();
  nodes_[node_index].probability =
      indices.empty() ? 0.0
                      : static_cast<double>(positives) /
                            static_cast<double>(indices.size());

  const bool pure = positives == 0 || positives == indices.size();
  if (pure || depth >= options.max_depth ||
      indices.size() < 2 * options.min_leaf) {
    return node_index;
  }

  // Find the best split across all pair features (unconstrained search).
  std::vector<TrainingExample> subset;
  subset.reserve(indices.size());
  for (std::size_t i : indices) subset.push_back(examples[i]);
  SplitOptions split_options;
  split_options.constrain_to_pair = false;

  std::optional<SplitCandidate> best;
  for (std::size_t f = 0; f < schema.size(); ++f) {
    auto candidate = BestPredicateForFeature(schema, subset, f,
                                             Value::Missing(), split_options);
    if (candidate.has_value() &&
        (!best.has_value() || candidate->gain > best->gain)) {
      best = std::move(candidate);
    }
  }
  if (!best.has_value() || best->gain < options.min_gain) {
    return node_index;
  }

  std::vector<std::size_t> yes_indices;
  std::vector<std::size_t> no_indices;
  for (std::size_t i : indices) {
    if (best->atom.Eval(examples[i].features)) {
      yes_indices.push_back(i);
    } else {
      no_indices.push_back(i);
    }
  }
  if (yes_indices.size() < options.min_leaf ||
      no_indices.size() < options.min_leaf) {
    return node_index;
  }

  nodes_[node_index].atom = best->atom;
  const std::size_t yes_child =
      Build(schema, examples, std::move(yes_indices), options, depth + 1);
  const std::size_t no_child =
      Build(schema, examples, std::move(no_indices), options, depth + 1);
  nodes_[node_index].yes = yes_child;
  nodes_[node_index].no = no_child;
  return node_index;
}

double DecisionTree::PredictProbability(
    const std::vector<Value>& features) const {
  PX_CHECK(fitted());
  std::size_t node = 0;
  while (!nodes_[node].IsLeaf()) {
    node = nodes_[node].atom.Eval(features) ? nodes_[node].yes
                                            : nodes_[node].no;
  }
  return nodes_[node].probability;
}

std::size_t DecisionTree::DepthOf(std::size_t node) const {
  if (nodes_[node].IsLeaf()) return 1;
  return 1 + std::max(DepthOf(nodes_[node].yes), DepthOf(nodes_[node].no));
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  return DepthOf(0);
}

std::string DecisionTree::ToString(const PairSchema& schema) const {
  (void)schema;
  std::string out;
  struct Frame {
    std::size_t node;
    std::size_t indent;
  };
  if (nodes_.empty()) return "(empty tree)";
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    out.append(frame.indent * 2, ' ');
    const Node& node = nodes_[frame.node];
    if (node.IsLeaf()) {
      out += "leaf p=" + std::to_string(node.probability) +
             " n=" + std::to_string(node.support) + "\n";
    } else {
      out += node.atom.ToString() + " ? (n=" + std::to_string(node.support) +
             ")\n";
      stack.push_back({node.no, frame.indent + 1});
      stack.push_back({node.yes, frame.indent + 1});
    }
  }
  return out;
}

}  // namespace perfxplain
