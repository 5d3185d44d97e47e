#include "ml/tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "persist/binary_io.hpp"

namespace cordial::ml {

namespace {

/// Per-feature split scans go parallel once a node holds this many samples;
/// below it the scheduling overhead outweighs the scan. The cutover only
/// affects speed — scans are pure and reduced in sampled-feature order, so
/// the chosen split is identical either way.
constexpr std::size_t kParallelSplitMinSamples = 2048;

/// Feature subset to try at one split: all features when max_features is 0
/// or >= d, otherwise a uniform sample without replacement.
std::vector<std::size_t> SampleFeatures(std::size_t num_features,
                                        std::size_t max_features, Rng& rng) {
  if (max_features == 0 || max_features >= num_features) {
    std::vector<std::size_t> all(num_features);
    for (std::size_t i = 0; i < num_features; ++i) all[i] = i;
    return all;
  }
  return rng.SampleWithoutReplacement(num_features, max_features);
}

double Gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

}  // namespace

// ---------------------------------------------------------------- binning

FeatureBinner::FeatureBinner(const Dataset& data,
                             const std::vector<std::size_t>& indices,
                             int max_bins)
    : max_bins_(max_bins) {
  CORDIAL_CHECK_MSG(max_bins_ >= 2, "binner needs at least 2 bins");
  const std::size_t d = data.num_features();
  edges_.resize(d);
  std::vector<double> values;
  for (std::size_t f = 0; f < d; ++f) {
    values.clear();
    if (indices.empty()) {
      values.reserve(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) values.push_back(data.at(i, f));
    } else {
      values.reserve(indices.size());
      for (std::size_t i : indices) values.push_back(data.at(i, f));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    auto& edges = edges_[f];
    if (values.size() <= static_cast<std::size_t>(max_bins_)) {
      // One bin per distinct value: edges midway between neighbours.
      for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        edges.push_back(0.5 * (values[i] + values[i + 1]));
      }
    } else {
      // Quantile edges.
      for (int b = 1; b < max_bins_; ++b) {
        const double q = static_cast<double>(b) / max_bins_;
        const auto pos = static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1));
        const double edge = 0.5 * (values[pos] +
                                   values[std::min(pos + 1, values.size() - 1)]);
        if (edges.empty() || edge > edges.back()) edges.push_back(edge);
      }
    }
  }
}

int FeatureBinner::BinOf(std::size_t feature, double value) const {
  CORDIAL_CHECK_MSG(feature < edges_.size(), "binner feature out of range");
  const auto& edges = edges_[feature];
  // Bin b holds values in (edge[b-1], edge[b]]: lower_bound keeps a value
  // equal to an edge on the LEFT side, matching the tree's "value <=
  // threshold goes left" prediction rule.
  return static_cast<int>(
      std::lower_bound(edges.begin(), edges.end(), value) - edges.begin());
}

int FeatureBinner::NumBins(std::size_t feature) const {
  CORDIAL_CHECK_MSG(feature < edges_.size(), "binner feature out of range");
  return static_cast<int>(edges_[feature].size()) + 1;
}

double FeatureBinner::BinUpperEdge(std::size_t feature, int bin) const {
  const auto& edges = edges_[feature];
  if (bin >= static_cast<int>(edges.size())) {
    return std::numeric_limits<double>::infinity();
  }
  CORDIAL_CHECK_MSG(bin >= 0, "bin out of range");
  return edges[static_cast<std::size_t>(bin)];
}

// ----------------------------------------------------- classification tree

void ClassificationTree::Fit(const Dataset& data,
                             const std::vector<std::size_t>& indices,
                             Rng& rng) {
  CORDIAL_CHECK_MSG(!indices.empty(), "cannot fit a tree on zero samples");
  Clear(data.num_features(), static_cast<std::uint32_t>(data.num_classes()));
  depth_ = 0;
  std::vector<std::size_t> work(indices);
  Build(data, work, 0, rng);
  CompactTable();
}

std::uint32_t ClassificationTree::Build(const Dataset& data,
                                        std::vector<std::size_t>& indices,
                                        int depth, Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t k = width_;

  std::vector<double> counts(k, 0.0);
  for (std::size_t i : indices) {
    counts[static_cast<std::size_t>(data.label(i))] += 1.0;
  }
  const auto total = static_cast<double>(indices.size());
  const double parent_impurity = Gini(counts, total);

  auto make_leaf = [&] {
    for (double& c : counts) c /= total;
    return AddLeaf(counts);
  };

  const bool pure = std::any_of(counts.begin(), counts.end(), [&](double c) {
    return c == total;
  });
  if (pure || indices.size() < options_.min_samples_split ||
      (options_.max_depth > 0 && depth >= options_.max_depth)) {
    return make_leaf();
  }

  // Best Gini split over a feature subsample. Every candidate feature is
  // scanned independently (in parallel for large nodes) and the per-feature
  // winners are reduced in sampled order with strict improvement, which is
  // exactly the serial loop's first-strict-winner semantics — the chosen
  // split is identical at every thread count.
  struct FeatureSplit {
    bool found = false;
    double impurity = 0.0;
    double threshold = 0.0;
  };
  const double impurity_bar = parent_impurity - options_.min_impurity_decrease;
  const std::vector<std::size_t> feats =
      SampleFeatures(data.num_features(), options_.max_features, rng);
  auto scan_feature = [&](std::size_t f) {
    FeatureSplit split;
    std::vector<std::pair<double, int>> sorted;  // (value, label)
    sorted.reserve(indices.size());
    for (std::size_t i : indices) {
      sorted.emplace_back(data.at(i, f), data.label(i));
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) return split;  // constant

    double feature_best = impurity_bar;
    std::vector<double> left_counts(k, 0.0);
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      left_counts[static_cast<std::size_t>(sorted[i].second)] += 1.0;
      if (sorted[i].first == sorted[i + 1].first) continue;  // same value
      const auto n_left = static_cast<double>(i + 1);
      const double n_right = total - n_left;
      if (n_left < static_cast<double>(options_.min_samples_leaf) ||
          n_right < static_cast<double>(options_.min_samples_leaf)) {
        continue;
      }
      double right_sq = 0.0, left_sq = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        left_sq += left_counts[c] * left_counts[c];
        const double rc = counts[c] - left_counts[c];
        right_sq += rc * rc;
      }
      const double gini_left = 1.0 - left_sq / (n_left * n_left);
      const double gini_right = 1.0 - right_sq / (n_right * n_right);
      const double weighted =
          (n_left * gini_left + n_right * gini_right) / total;
      if (weighted < feature_best) {
        feature_best = weighted;
        split.found = true;
        split.impurity = weighted;
        split.threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      }
    }
    return split;
  };

  std::vector<FeatureSplit> splits;
  if (indices.size() >= kParallelSplitMinSamples && feats.size() > 1) {
    splits = ParallelMap<FeatureSplit>(
        feats.size(), [&](std::size_t fi) { return scan_feature(feats[fi]); });
  } else {
    splits.reserve(feats.size());
    for (std::size_t f : feats) splits.push_back(scan_feature(f));
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_impurity = impurity_bar;
  for (std::size_t fi = 0; fi < feats.size(); ++fi) {
    if (splits[fi].found && splits[fi].impurity < best_impurity) {
      best_impurity = splits[fi].impurity;
      best_feature = static_cast<int>(feats[fi]);
      best_threshold = splits[fi].threshold;
    }
  }

  if (best_feature < 0) return make_leaf();
  importance_[static_cast<std::size_t>(best_feature)] +=
      (parent_impurity - best_impurity) * total;

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    (data.at(i, static_cast<std::size_t>(best_feature)) <= best_threshold
         ? left_idx
         : right_idx)
        .push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return make_leaf();
  indices.clear();
  indices.shrink_to_fit();

  // Pre-order: the left subtree follows the split, then the right one.
  const std::uint32_t split =
      AddSplit(static_cast<std::size_t>(best_feature), best_threshold);
  const std::uint32_t left = Build(data, left_idx, depth + 1, rng);
  splits_[split].left = left;
  const std::uint32_t right = Build(data, right_idx, depth + 1, rng);
  splits_[split].right = right;
  return split;
}

// -------------------------------------------------------- regression tree

namespace {

struct GradSums {
  double g = 0.0;
  double h = 0.0;
};

double LeafValue(const GradSums& s, double lambda) {
  return -s.g / (s.h + lambda);
}

double ScoreOf(const GradSums& s, double lambda) {
  return s.g * s.g / (s.h + lambda);
}

}  // namespace

RegressionTree::SplitResult RegressionTree::FindBestSplit(
    const Dataset& data, const std::vector<std::size_t>& indices,
    std::span<const double> gradients, std::span<const double> hessians,
    Rng& rng, const FeatureBinner* binner) const {
  GradSums parent;
  for (std::size_t i : indices) {
    parent.g += gradients[i];
    parent.h += hessians[i];
  }
  const double parent_score = ScoreOf(parent, options_.lambda);

  // Per-feature scans (histogram or exact) are independent; for large nodes
  // they run in parallel and the winners are reduced in sampled-feature
  // order with strict improvement — identical to the serial loop's
  // first-strict-winner pick at every thread count.
  const std::vector<std::size_t> feats =
      SampleFeatures(data.num_features(), options_.max_features, rng);
  auto scan_feature = [&](std::size_t f) {
    SplitResult best;
    if (binner != nullptr) {
      // Histogram scan.
      const int bins = binner->NumBins(f);
      if (bins < 2) return best;
      std::vector<GradSums> hist(static_cast<std::size_t>(bins));
      std::vector<std::uint32_t> bin_count(static_cast<std::size_t>(bins), 0);
      for (std::size_t i : indices) {
        const int b = binner->BinOf(f, data.at(i, f));
        hist[static_cast<std::size_t>(b)].g += gradients[i];
        hist[static_cast<std::size_t>(b)].h += hessians[i];
        ++bin_count[static_cast<std::size_t>(b)];
      }
      GradSums left;
      std::size_t n_left = 0;
      for (int b = 0; b + 1 < bins; ++b) {
        left.g += hist[static_cast<std::size_t>(b)].g;
        left.h += hist[static_cast<std::size_t>(b)].h;
        n_left += bin_count[static_cast<std::size_t>(b)];
        if (n_left < options_.min_samples_leaf ||
            indices.size() - n_left < options_.min_samples_leaf) {
          continue;
        }
        const GradSums right{parent.g - left.g, parent.h - left.h};
        if (left.h < options_.min_child_weight ||
            right.h < options_.min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (ScoreOf(left, options_.lambda) +
                                   ScoreOf(right, options_.lambda) -
                                   parent_score) -
                            options_.gamma;
        if (gain > best.gain) {
          best.found = true;
          best.gain = gain;
          best.feature = static_cast<int>(f);
          best.threshold = binner->BinUpperEdge(f, b);
        }
      }
    } else {
      // Exact scan over sorted values.
      std::vector<std::pair<double, std::size_t>> sorted;
      sorted.reserve(indices.size());
      for (std::size_t i : indices) sorted.emplace_back(data.at(i, f), i);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) return best;
      GradSums left;
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        const std::size_t sample = sorted[i].second;
        left.g += gradients[sample];
        left.h += hessians[sample];
        if (sorted[i].first == sorted[i + 1].first) continue;
        const std::size_t n_left = i + 1;
        if (n_left < options_.min_samples_leaf ||
            indices.size() - n_left < options_.min_samples_leaf) {
          continue;
        }
        const GradSums right{parent.g - left.g, parent.h - left.h};
        if (left.h < options_.min_child_weight ||
            right.h < options_.min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (ScoreOf(left, options_.lambda) +
                                   ScoreOf(right, options_.lambda) -
                                   parent_score) -
                            options_.gamma;
        if (gain > best.gain) {
          best.found = true;
          best.gain = gain;
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }
    return best;
  };

  std::vector<SplitResult> per_feature;
  if (indices.size() >= kParallelSplitMinSamples && feats.size() > 1) {
    per_feature = ParallelMap<SplitResult>(
        feats.size(), [&](std::size_t fi) { return scan_feature(feats[fi]); });
  } else {
    per_feature.reserve(feats.size());
    for (std::size_t f : feats) per_feature.push_back(scan_feature(f));
  }

  SplitResult best;
  for (const SplitResult& candidate : per_feature) {
    if (candidate.found && candidate.gain > best.gain) best = candidate;
  }
  return best;
}

void RegressionTree::Fit(const Dataset& data,
                         const std::vector<std::size_t>& indices,
                         std::span<const double> gradients,
                         std::span<const double> hessians, Rng& rng,
                         const FeatureBinner* binner) {
  CORDIAL_CHECK_MSG(!indices.empty(), "cannot fit a tree on zero samples");
  CORDIAL_CHECK_MSG(gradients.size() == hessians.size(),
                    "gradient/hessian size mismatch");
  CORDIAL_CHECK_MSG((options_.max_bins > 0) == (binner != nullptr),
                    "binner must be supplied iff max_bins > 0");
  Clear(data.num_features(), 1);

  // The tree grows best-first, children after their parents; it is laid
  // out in pre-order once grown. Every node keeps the value it would have
  // as a leaf until it splits.
  struct Grown {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::size_t left = 0;
    std::size_t right = 0;
    double value = 0.0;
  };
  std::vector<Grown> grown;

  struct Pending {
    std::size_t node_id;
    std::vector<std::size_t> indices;
    int depth;
    SplitResult split;
  };

  auto leaf_value_of = [&](const std::vector<std::size_t>& idx) {
    GradSums s;
    for (std::size_t i : idx) {
      s.g += gradients[i];
      s.h += hessians[i];
    }
    return LeafValue(s, options_.lambda);
  };

  auto can_expand = [&](const Pending& p) {
    if (options_.max_depth > 0 && p.depth >= options_.max_depth) return false;
    if (p.indices.size() < 2 * options_.min_samples_leaf) return false;
    return true;
  };

  auto add_node = [&](double value) {
    grown.push_back(Grown{.value = value});
    return grown.size() - 1;
  };

  // Root.
  Pending root{add_node(leaf_value_of(indices)), indices, 0, {}};
  if (can_expand(root)) {
    root.split = FindBestSplit(data, root.indices, gradients, hessians, rng, binner);
  }

  // Best-first expansion; with max_leaves == 0 every positive-gain node is
  // expanded, which makes the order irrelevant and the result identical to
  // classic level-wise growth.
  auto cmp = [](const Pending& a, const Pending& b) {
    return a.split.gain < b.split.gain;
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(cmp)> heap(cmp);
  if (root.split.found) heap.push(std::move(root));

  std::size_t leaves = 1;
  const std::size_t max_leaves =
      options_.max_leaves > 0 ? static_cast<std::size_t>(options_.max_leaves)
                              : std::numeric_limits<std::size_t>::max();

  while (!heap.empty() && leaves < max_leaves) {
    Pending p = heap.top();
    heap.pop();
    const auto f = static_cast<std::size_t>(p.split.feature);

    std::vector<std::size_t> left_idx, right_idx;
    for (std::size_t i : p.indices) {
      (data.at(i, f) <= p.split.threshold ? left_idx : right_idx).push_back(i);
    }
    if (left_idx.empty() || right_idx.empty()) continue;  // degenerate

    importance_[f] += p.split.gain;
    const std::size_t left_id = add_node(leaf_value_of(left_idx));
    const std::size_t right_id = add_node(leaf_value_of(right_idx));
    Grown& parent = grown[p.node_id];
    parent.feature = p.split.feature;
    parent.threshold = p.split.threshold;
    parent.left = left_id;
    parent.right = right_id;
    ++leaves;  // one leaf became two

    Pending lp{left_id, std::move(left_idx), p.depth + 1, {}};
    if (can_expand(lp)) {
      lp.split = FindBestSplit(data, lp.indices, gradients, hessians, rng, binner);
      if (lp.split.found) heap.push(std::move(lp));
    }
    Pending rp{right_id, std::move(right_idx), p.depth + 1, {}};
    if (can_expand(rp)) {
      rp.split = FindBestSplit(data, rp.indices, gradients, hessians, rng, binner);
      if (rp.split.found) heap.push(std::move(rp));
    }
  }

  // Pre-order from the root: each stacked node names the split whose left
  // or right child it is, if it is not the root.
  struct Place {
    std::size_t id;
    std::uint32_t parent;
    bool right;
  };
  constexpr std::uint32_t kRoot = std::numeric_limits<std::uint32_t>::max();
  std::vector<Place> stack{{0, kRoot, false}};
  while (!stack.empty()) {
    const Place place = stack.back();
    stack.pop_back();
    const Grown& node = grown[place.id];
    std::uint32_t ref = 0;
    if (node.feature < 0) {
      ref = AddLeaf(std::span<const double>(&node.value, 1));
    } else {
      ref = AddSplit(static_cast<std::size_t>(node.feature), node.threshold);
      stack.push_back({node.right, ref, true});
      stack.push_back({node.left, ref, false});
    }
    if (place.parent != kRoot) {
      Split& parent = splits_[place.parent];
      (place.right ? parent.right : parent.left) = ref;
    }
  }
  CompactTable();
}

// ------------------------------------------------------------ split layout

static_assert(sizeof(DecisionTree::Split) == 16, "splits stay compact");

namespace {

/// The root's child reference: split 0, or the one leaf's entry 0.
std::uint32_t RootOf(std::span<const DecisionTree::Split> splits) {
  return splits.empty() ? DecisionTree::kLeafBit : 0;
}

/// The lockstep walk of `lanes` rows, at most `Lanes`, `stride` values
/// apart from `rows`: each step advances every row still at a split by one
/// split, until every row's reference names a leaf, and the references are
/// written to `refs`. A one-lane walk keeps its reference in a register.
template <std::size_t Lanes>
void WalkLanes(const DecisionTree::Split* splits,
               const std::uint16_t* features, std::uint32_t root,
               const double* rows, std::size_t stride, std::size_t lanes,
               std::uint32_t* refs) {
  constexpr std::uint32_t kLeaf = DecisionTree::kLeafBit;
  const std::size_t count = Lanes == 1 ? 1 : lanes;
  std::uint32_t walk[Lanes] = {};
  for (std::size_t lane = 0; lane < count; ++lane) walk[lane] = root;
  for (bool walking = (root & kLeaf) == 0; walking;) {
    walking = false;
    for (std::size_t lane = 0; lane < count; ++lane) {
      const std::uint32_t ref = walk[lane];
      if ((ref & kLeaf) != 0) continue;
      const DecisionTree::Split& split = splits[ref];
      std::uint32_t next = split.right;
      if (rows[lane * stride + features[ref]] <= split.threshold) {
        if constexpr (Lanes == 1) {
          // Alone, a row's walk is one chain of dependent loads. A left
          // child that is a split is the next split, so a left move takes
          // no load, as it never did in a pre-order node array; the leaf
          // check resolves beside the chain. In lockstep the other rows'
          // steps hide the load instead.
          next = (split.left & kLeaf) != 0 ? split.left : ref + 1;
        } else {
          next = split.left;
        }
      }
      walk[lane] = next;
      walking |= (next & kLeaf) == 0;
    }
  }
  for (std::size_t lane = 0; lane < count; ++lane) refs[lane] = walk[lane];
}

}  // namespace

void DecisionTree::Leaves(std::span<const double> rows, std::size_t stride,
                          std::span<const double*> leaves) const {
  CORDIAL_CHECK_MSG(!table_.empty(), "tree not fitted");
  CORDIAL_CHECK_MSG(leaves.size() * stride <= rows.size(),
                    "fewer row values than rows to walk");
  const std::uint32_t root = RootOf(splits_);
  std::uint32_t refs[kLanes] = {};
  for (std::size_t first = 0; first < leaves.size(); first += kLanes) {
    const std::size_t lanes = std::min(kLanes, leaves.size() - first);
    const double* const group = rows.data() + first * stride;
    if (lanes == 1) {
      WalkLanes<1>(splits_.data(), features_.data(), root, group, stride, 1,
                   refs);
    } else {
      WalkLanes<kLanes>(splits_.data(), features_.data(), root, group,
                        stride, lanes, refs);
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      leaves[first + lane] =
          table_.data() + std::size_t{refs[lane] & ~kLeafBit} * width_;
    }
  }
}

std::span<const double> DecisionTree::Leaf(
    std::span<const double> features) const {
  const double* leaf = nullptr;
  Leaves(features, features.size(), std::span<const double*>(&leaf, 1));
  return {leaf, width_};
}

namespace {

/// The bytes of a leaf tuple of `width` values: table entries are compared
/// by them, so -0.0 and 0.0, or NaNs of two payloads, are two entries.
std::string_view TupleBytes(const double* tuple, std::size_t width) {
  return {reinterpret_cast<const char*>(tuple), width * sizeof(double)};
}

/// The varints inside a node (its tag and a leaf's table entry) are at most
/// five bytes long: every value the encoder writes there fits in 32 bits.
constexpr std::size_t kMaxNodeVarBytes = 5;

/// The most nodes a tree may have: a child reference keeps 31 bits for a
/// split index or a table entry.
constexpr auto kMaxNodes =
    static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());

/// The fewest bytes the nodes of a tree of `n` >= 1 nodes take: a binary
/// tree has (n - 1) / 2 splits, each a tag and a threshold, and (n + 1) / 2
/// leaves, each a tag and a table entry.
std::uint64_t MinNodeBytes(std::uint64_t n) {
  return (n - 1) / 2 * 9 + (n + 1) / 2 * 2;
}

/// Reads a tree's table entry count: the entries, `width` doubles each,
/// must fit in the bytes left.
std::uint64_t ReadEntryCount(persist::BinaryReader& in, std::uint32_t width) {
  const std::uint64_t entries = in.Var();
  if (entries > in.remaining() / 8 / width) {
    in.Fail("tree table of " + std::to_string(entries) + " entries of " +
            std::to_string(width) + " value(s) does not fit in the " +
            std::to_string(in.remaining()) + " bytes left");
  }
  return entries;
}

/// Reads a tree's node count, after its table: the nodes of a valid tree
/// of that many must fit in the bytes left, and its (n + 1) / 2 leaves must
/// be enough to use every entry.
std::uint64_t ReadNodeCount(persist::BinaryReader& in, std::uint64_t entries) {
  const std::uint64_t n = in.Var();
  if (n == 0) in.Fail("tree has no nodes");
  if (n > kMaxNodes || n > in.remaining() ||
      MinNodeBytes(n) > in.remaining()) {
    in.Fail("a tree of " + std::to_string(n) +
            " nodes does not fit in the " + std::to_string(in.remaining()) +
            " bytes left");
  }
  if (entries > (n + 1) / 2) {
    in.Fail("tree table has " + std::to_string(entries) +
            " entries for at most " + std::to_string((n + 1) / 2) +
            " leaves");
  }
  return n;
}

/// Reads the fields of one node from a pointer that has at least the
/// node's largest encoding in front of it, so no field checks bounds: the
/// decoder checks once per node. Varints are canonical, as
/// persist::BinaryReader::Var reads them.
class NodeReader {
 public:
  NodeReader(const unsigned char* at, const persist::BinaryReader& in)
      : pos_(at), in_(in) {}

  const unsigned char* pos() const { return pos_; }

  /// Tags and table entries are almost always one byte: that case stays
  /// inline.
  std::uint64_t Var() {
    const unsigned char first = *pos_;
    if (first < 0x80u) {
      ++pos_;
      return first;
    }
    return LongVar();
  }

  double F64() {
    std::uint64_t bits = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&bits, pos_, sizeof(bits));
    } else {
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<std::uint64_t>(pos_[i]) << (8 * i);
      }
    }
    pos_ += 8;
    return std::bit_cast<double>(bits);
  }

 private:
  std::uint64_t LongVar() {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < kMaxNodeVarBytes; ++i) {
      const unsigned char byte = *pos_++;
      value |= static_cast<std::uint64_t>(byte & 0x7Fu) << (7 * i);
      if ((byte & 0x80u) == 0) {
        if (byte == 0) in_.Fail("overlong varint in a tree node");
        return value;
      }
    }
    in_.Fail("tree node varint longer than " +
             std::to_string(kMaxNodeVarBytes) + " bytes");
  }

  const unsigned char* pos_;
  const persist::BinaryReader& in_;
};

}  // namespace

void DecisionTree::Clear(std::size_t num_features, std::uint32_t width) {
  CORDIAL_CHECK_MSG(num_features <= kMaxFeatures,
                    "trees split on at most 65,535 features");
  splits_.clear();
  features_.clear();
  table_.clear();
  width_ = width;
  importance_.assign(num_features, 0.0);
}

std::uint32_t DecisionTree::AddSplit(std::size_t feature, double threshold) {
  const auto ref = static_cast<std::uint32_t>(splits_.size());
  splits_.push_back(Split{threshold, 0, 0});
  features_.push_back(static_cast<std::uint16_t>(feature));
  return ref;
}

std::uint32_t DecisionTree::AddLeaf(std::span<const double> values) {
  const auto entry = static_cast<std::uint32_t>(table_.size() / width_);
  table_.insert(table_.end(), values.begin(), values.end());
  return kLeafBit | entry;
}

void DecisionTree::CompactTable() {
  // Leaf k (in pre-order) holds entry k; an entry equal to an earlier one
  // merges into it, and the rest keep their first-use order.
  std::map<std::string_view, std::uint32_t> entries;
  std::vector<double> table;
  std::vector<std::uint32_t> merged(table_.size() / width_);
  for (std::size_t leaf = 0; leaf < merged.size(); ++leaf) {
    const double* tuple = table_.data() + leaf * width_;
    const auto [it, fresh] = entries.try_emplace(
        TupleBytes(tuple, width_),
        static_cast<std::uint32_t>(table.size() / width_));
    if (fresh) table.insert(table.end(), tuple, tuple + width_);
    merged[leaf] = it->second;
  }
  for (Split& split : splits_) {
    for (std::uint32_t* ref : {&split.left, &split.right}) {
      if ((*ref & kLeafBit) != 0) *ref = kLeafBit | merged[*ref & ~kLeafBit];
    }
  }
  // A fitted tree holds what a decoded one does.
  splits_.shrink_to_fit();
  features_.shrink_to_fit();
  table.shrink_to_fit();
  table_ = std::move(table);
}

std::size_t DecisionTree::MinEncodedBytes(std::size_t num_features) {
  return 5 + 8 + 8 * num_features;
}

std::uint32_t DecisionTree::DecodeClassCount(persist::BinaryReader& in,
                                             const char* what) {
  const std::uint64_t classes = in.Var();
  if (classes < 2 || classes > in.remaining() / 8) {
    in.Fail(std::string(what) + " class count " + std::to_string(classes) +
            " is below 2 or does not fit in the " +
            std::to_string(in.remaining()) + " bytes left");
  }
  return static_cast<std::uint32_t>(classes);
}

void DecisionTree::Encode(persist::BinaryWriter& out) const {
  if (species_ == Species::kClassification) out.Var(width_);
  out.Var(table_.size() / width_);
  for (double v : table_) out.F64(v);
  out.Var(node_count());
  // Pre-order: a split, its left subtree, then its right one, which waits
  // on the stack while the left one is written.
  std::vector<std::uint32_t> rights;
  for (std::uint32_t ref = RootOf(splits_);;) {
    if ((ref & kLeafBit) != 0) {
      out.Var(0);
      out.Var(ref & ~kLeafBit);
      if (rights.empty()) break;
      ref = rights.back();
      rights.pop_back();
    } else {
      out.Var(std::uint64_t{features_[ref]} + 1);
      out.F64(splits_[ref].threshold);
      rights.push_back(splits_[ref].right);
      ref = splits_[ref].left;
    }
  }
  for (double v : importance_) out.F64(v);
}

void DecisionTree::Decode(persist::BinaryReader& in,
                          std::size_t num_features) {
  // A split's feature is narrowed to 16 bits below.
  if (num_features > kMaxFeatures) {
    in.Fail("a model of " + std::to_string(num_features) +
            " features: trees split on at most 65,535 features");
  }
  width_ = 1;
  if (species_ == Species::kClassification) {
    width_ = DecodeClassCount(in, "tree");
  }
  const std::uint64_t entries = ReadEntryCount(in, width_);
  table_.resize(entries * width_);
  for (double& v : table_) v = in.F64();
  const std::uint64_t n = ReadNodeCount(in, entries);
  // A tree that closes exactly at its last node has (n - 1) / 2 splits.
  const std::uint64_t max_splits = (n - 1) / 2;
  splits_.assign(max_splits, Split{});
  features_.assign(max_splits, 0);

  // No two entries equal. A tree has one leaf more than splits, so every
  // entry but entry 0 fits in a split record (ReadNodeCount): their numbers
  // are sorted by value there, and entry 0 is looked up among them. The
  // records are overwritten below, so the check allocates nothing.
  const auto tuple = [&](std::uint32_t entry) {
    return TupleBytes(table_.data() + std::size_t{entry} * width_, width_);
  };
  const auto equal_entries = [&](std::uint32_t a, std::uint32_t b) {
    in.Fail("tree table entries " + std::to_string(std::min(a, b)) + " and " +
            std::to_string(std::max(a, b)) + " are equal");
  };
  if (entries > 1) {
    for (std::uint64_t e = 1; e < entries; ++e) {
      splits_[e - 1].left = static_cast<std::uint32_t>(e);
    }
    const auto sorted_end =
        splits_.begin() + static_cast<std::ptrdiff_t>(entries - 1);
    const auto by_tuple = [&](const Split& a, const Split& b) {
      return tuple(a.left) < tuple(b.left);
    };
    std::sort(splits_.begin(), sorted_end, by_tuple);
    for (auto it = splits_.begin() + 1; it < sorted_end; ++it) {
      if (tuple(it[-1].left) == tuple(it->left)) {
        equal_entries(it[-1].left, it->left);
      }
    }
    const Split first{0.0, 0, 0};
    const auto at = std::lower_bound(splits_.begin(), sorted_end, first,
                                     by_tuple);
    if (at != sorted_end && tuple(at->left) == tuple(0)) {
      equal_entries(0, at->left);
    }
  }

  // The nodes, in pre-order; only splits are kept, and each node's child
  // reference goes where the node before it says: a split's left child
  // follows it, and the node after a leaf is the right child of the
  // innermost split still waiting for one. Those splits form a stack,
  // linked through their unset right references. A leaf with no split left
  // to pop closes the tree, which must happen at the last node.
  //
  // One bounds check per node, against the node's largest encoding: a tag
  // and a threshold. A node closer than that to the end of the payload is
  // read from a zero-padded copy of the tail, and refused if it used bytes
  // past the real end.
  constexpr std::uint32_t kNoSplit = std::numeric_limits<std::uint32_t>::max();
  constexpr std::size_t kMaxNodeBytes = kMaxNodeVarBytes + 8;
  std::uint32_t open = kNoSplit;  // the innermost split awaiting its right child
  std::uint32_t* slot = nullptr;  // where the next node's reference goes
  std::uint32_t splits = 0;       // splits read so far
  bool closed = false;            // by a leaf that found no split open
  std::uint64_t used = 0;         // entries used so far, in first-use order
  const std::string_view rest = in.rest();
  const auto* const begin =
      reinterpret_cast<const unsigned char*>(rest.data());
  const auto* const end = begin + rest.size();
  const unsigned char* at = begin;
  std::array<unsigned char, kMaxNodeBytes> tail{};
  const std::uint64_t last = n - 1;
  const auto never_closes = [&] {
    in.Fail("tree of " + std::to_string(n) +
            " node(s) does not close at its last node");
  };
  for (std::uint64_t i = 0; i <= last; ++i) {
    const auto left_in_payload = static_cast<std::size_t>(end - at);
    const unsigned char* from = at;
    if (left_in_payload < kMaxNodeBytes) {
      tail.fill(0);
      std::memcpy(tail.data(), at, left_in_payload);
      from = tail.data();
    }
    NodeReader node_in(from, in);
    std::uint32_t ref = 0;
    const std::uint64_t tag = node_in.Var();
    if (tag != 0) {
      if (tag > num_features) {
        in.Fail("tree node " + std::to_string(i) + " splits on feature " +
                std::to_string(tag - 1) + " of " +
                std::to_string(num_features));
      }
      // More splits than (n - 1) / 2 leave too few nodes to close them.
      if (splits == max_splits) never_closes();
      ref = splits++;
      features_[ref] = static_cast<std::uint16_t>(tag - 1);
      splits_[ref] = Split{node_in.F64(), 0, open};
      open = ref;
      if (slot != nullptr) *slot = ref;
      slot = &splits_[ref].left;
    } else {
      const std::uint64_t e = node_in.Var();
      if (e >= entries) {
        in.Fail("tree node " + std::to_string(i) + " uses table entry " +
                std::to_string(e) + " of " + std::to_string(entries));
      }
      if (e > used) {
        in.Fail("tree node " + std::to_string(i) + " uses table entry " +
                std::to_string(e) + " before entry " + std::to_string(used));
      }
      if (e == used) ++used;
      ref = kLeafBit | static_cast<std::uint32_t>(e);
      if (slot != nullptr) *slot = ref;
      if (open == kNoSplit) {
        if (i != last) {
          in.Fail("tree closes at node " + std::to_string(i) + " of " +
                  std::to_string(n));
        }
        closed = true;
      } else {
        Split& split = splits_[open];
        open = split.right;
        slot = &split.right;
      }
    }
    const auto read = static_cast<std::size_t>(node_in.pos() - from);
    if (read > left_in_payload) {
      in.Fail("truncated payload (tree node " + std::to_string(i) +
              " needs " + std::to_string(read) + " byte(s), have " +
              std::to_string(left_in_payload) + ")");
    }
    at += read;
  }
  if (!closed) never_closes();
  if (used != entries) {
    in.Fail("tree table entry " + std::to_string(used) + " of " +
            std::to_string(entries) + " is never used");
  }
  in.Bytes(static_cast<std::size_t>(at - begin));
  importance_.resize(num_features);
  for (double& v : importance_) v = in.F64();
}

void DecisionTree::Reserve(std::string_view encoded,
                           std::size_t num_features) {
  // The counts as Decode reads them, each reserved as soon as it is read,
  // so that Decode allocates nothing even on a tree it refuses: a count it
  // would refuse reserves nothing, and neither does any count after it.
  persist::BinaryReader in(encoded, "tree");
  try {
    std::uint32_t width = 1;
    if (species_ == Species::kClassification) {
      width = DecodeClassCount(in, "tree");
    }
    const std::uint64_t entries = ReadEntryCount(in, width);
    table_.reserve(entries * width);
    in.Bytes(entries * width * 8);
    const std::uint64_t splits = (ReadNodeCount(in, entries) - 1) / 2;
    splits_.reserve(splits);
    features_.reserve(splits);
  } catch (const ParseError&) {
    return;
  }
  importance_.reserve(num_features);
}

template <typename Tree>
void DecisionTree::EncodeFramed(const std::vector<Tree>& trees,
                                persist::BinaryWriter& out) {
  std::string bytes;
  for (const Tree& tree : trees) {
    bytes.clear();
    persist::BinaryWriter tree_out(bytes);
    tree.Encode(tree_out);
    out.Var(bytes.size());
    out.Bytes(bytes);
  }
}

template <typename Tree>
std::vector<Tree> DecisionTree::DecodeFramed(persist::BinaryReader& in,
                                             std::uint64_t count,
                                             std::size_t num_features,
                                             std::uint32_t leaf_width) {
  // Every allocation happens here, on the calling thread: glibc gives each
  // thread that allocates an arena of its own, and trees allocated in the
  // pool threads' arenas cost about 1.4 MB more resident memory on the
  // paper-scale models (DESIGN.md §16). The vector grows tree by tree:
  // sized up front, it read servebench's peak_rss_mb 0.5-2.6 MB higher
  // (heap layout; EXPERIMENTS.md).
  std::vector<Tree> trees;
  std::vector<std::string_view> spans(count);
  std::vector<std::exception_ptr> errors(count);
  for (std::uint64_t t = 0; t < count; ++t) {
    const std::uint64_t length = in.Var();
    if (length > in.remaining()) {
      in.Fail("tree " + std::to_string(t) + " takes " +
              std::to_string(length) + " byte(s), " +
              std::to_string(in.remaining()) + " left");
    }
    spans[t] = in.Bytes(length);
    trees.emplace_back().Reserve(spans[t], num_features);
  }
  ParallelFor(count, 1, [&](std::size_t t) {
    char context[96];
    std::snprintf(context, sizeof(context), "%s tree %zu", in.context(), t);
    persist::BinaryReader tree_in(spans[t], context);
    try {
      trees[t].Decode(tree_in, num_features);
      tree_in.ExpectEnd();
      if (trees[t].leaf_width() != leaf_width) {
        tree_in.Fail("leaves carry " + std::to_string(trees[t].leaf_width()) +
                     " value(s), the model's " + std::to_string(leaf_width));
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return trees;
}

template void DecisionTree::EncodeFramed(const std::vector<ClassificationTree>&,
                                         persist::BinaryWriter&);
template void DecisionTree::EncodeFramed(const std::vector<RegressionTree>&,
                                         persist::BinaryWriter&);
template std::vector<ClassificationTree> DecisionTree::DecodeFramed(
    persist::BinaryReader&, std::uint64_t, std::size_t, std::uint32_t);
template std::vector<RegressionTree> DecisionTree::DecodeFramed(
    persist::BinaryReader&, std::uint64_t, std::size_t, std::uint32_t);

}  // namespace cordial::ml
