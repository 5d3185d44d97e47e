// Decision trees.
//
// Two tree species cover the paper's three learners (§IV-C):
//   - ClassificationTree: CART with Gini impurity and per-node feature
//     subsampling — the Random Forest base learner.
//   - RegressionTree: second-order (Newton) gradient tree with L2-regularized
//     leaf values, supporting exact or histogram split finding and level-wise
//     or best-first (leaf-wise) growth — the base learner for both the
//     XGBoost-style and the LightGBM-style boosters.
// Once fitted or loaded both are a DecisionTree: its splits in pre-order,
// 18 bytes each, whose child references name either a split or a leaf's
// entry in the tree's table, one lockstep walk, one encoder and one decoder.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace cordial::persist {
class BinaryWriter;
class BinaryReader;
}  // namespace cordial::persist

namespace cordial::ml {

// ---------------------------------------------------------------- binning

/// Per-feature quantile binning for histogram split finding. Thresholds are
/// chosen from training-data quantiles; lookup is a binary search.
class FeatureBinner {
 public:
  /// Build from the rows of `data` indexed by `indices` (empty = all rows).
  FeatureBinner(const Dataset& data, const std::vector<std::size_t>& indices,
                int max_bins);

  int max_bins() const { return max_bins_; }
  /// Bin index of `value` for `feature`, in [0, NumBins(feature)).
  int BinOf(std::size_t feature, double value) const;
  int NumBins(std::size_t feature) const;
  /// Upper edge of bin b (split "value <= edge"); +inf for the last bin.
  double BinUpperEdge(std::size_t feature, int bin) const;

 private:
  int max_bins_;
  std::vector<std::vector<double>> edges_;  // per feature, ascending
};

// ------------------------------------------------------------ split layout

/// A fitted or loaded tree of either species: only its splits, in
/// pre-order, and one table of the tree's distinct leaf tuples, so no node
/// allocates and no leaf takes a record of its own. A classification leaf's
/// tuple is its class frequencies, a regression leaf's its Newton value.
class DecisionTree {
 public:
  /// A child reference: a split's index in pre-order, or, with kLeafBit
  /// set, a leaf's entry in the table.
  static constexpr std::uint32_t kLeafBit = 0x8000'0000u;
  /// Split features are 16-bit: a tree splits on at most this many.
  static constexpr std::size_t kMaxFeatures = 65'535;

  /// One split; 16 bytes, its feature in a parallel array. The left child
  /// is the next split or a leaf.
  struct Split {
    double threshold = 0.0;  ///< features[feature] <= threshold goes left
    std::uint32_t left = 0;
    std::uint32_t right = 0;
  };

  /// Rows one lockstep walk advances together; longer runs go in groups.
  static constexpr std::size_t kLanes = 16;

  /// The tree's one walk: for each of `leaves.size()` rows, `stride` values
  /// apart from the front of `rows`, the leaf tuple (`leaf_width()` values)
  /// the row falls in. The rows walk in lockstep, kLanes at a time: every
  /// step advances each row still at a split by one split, so the walks'
  /// dependent loads overlap. A NaN goes right, as `v <= threshold` is
  /// false.
  void Leaves(std::span<const double> rows, std::size_t stride,
              std::span<const double*> leaves) const;
  /// Leaves for one row: the class frequencies of a classification tree,
  /// the leaf value of a regression tree.
  std::span<const double> Leaf(std::span<const double> features) const;

  std::size_t split_count() const { return splits_.size(); }
  /// Splits and leaves: a binary tree has one leaf more than splits.
  std::size_t node_count() const { return 2 * splits_.size() + 1; }
  std::size_t leaf_count() const { return splits_.size() + 1; }
  /// Values per leaf: the class count, or 1 for a regression tree.
  std::size_t leaf_width() const { return width_; }
  /// The splits in pre-order; the root is split 0 unless the tree is one
  /// leaf, table entry 0.
  std::span<const Split> splits() const { return splits_; }
  /// The feature each split reads, parallel to splits().
  std::span<const std::uint16_t> split_features() const { return features_; }
  /// The distinct leaf tuples, `leaf_width()` values an entry, in the order
  /// the leaves (in pre-order) first use them; no two are equal bit for
  /// bit, and every one is some leaf's.
  std::span<const double> table() const { return table_; }

  /// Per-feature total impurity decrease (classification) or split gain
  /// (regression); empty before fitting. Not normalized.
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  /// Binary form (DESIGN.md §16): [class count,] the table's entry count
  /// and values, the node count, the nodes (splits and leaves) in
  /// pre-order, then `num_features` importances. A node is a varint tag (0
  /// for a leaf, feature + 1 for a split), then a split's threshold or a
  /// leaf's table entry as a varint; no node stores a child. Doubles are
  /// raw IEEE-754 bits.
  void Encode(persist::BinaryWriter& out) const;
  /// Replaces this tree with the encoded tree at `in`, built in place. The
  /// decoder is canonical: it accepts only bytes Encode writes. ParseError
  /// on more than kMaxFeatures features, a truncated or overlong field, a
  /// class count below 2, no nodes, a count that cannot fit in the bytes
  /// left, more table entries than leaves, two equal entries, a split
  /// feature outside [0, num_features), a leaf entry past the table or used
  /// before the entries ahead of it, an entry no leaf uses, or tags that do
  /// not close into one binary tree exactly at the last node.
  void Decode(persist::BinaryReader& in, std::size_t num_features);
  /// An ensemble's trees (DESIGN.md §16): each tree's encoded byte length
  /// as a varint, then the tree as Encode writes it, so that every tree
  /// can be decoded on its own.
  template <typename Tree>
  static void EncodeFramed(const std::vector<Tree>& trees,
                           persist::BinaryWriter& out);
  /// Reads `count` trees EncodeFramed wrote, each leaf `leaf_width` values
  /// wide. The calling thread reads the lengths and sizes every tree's
  /// storage; then Decode runs over each tree's span on the shared pool
  /// (ParallelFor). ParseError on a length past the payload, and, naming
  /// the tree, on a tree Decode refuses, one that leaves bytes of its span
  /// unread, or one of another leaf width. Of several bad trees the lowest
  /// index's error is thrown, so trees and errors are the same at every
  /// thread count.
  template <typename Tree>
  static std::vector<Tree> DecodeFramed(persist::BinaryReader& in,
                                        std::uint64_t count,
                                        std::size_t num_features,
                                        std::uint32_t leaf_width);
  /// The fewest bytes one of an ensemble's framed trees takes: its length,
  /// its counts, one table value, one leaf and its importances. The
  /// ensembles' decoders bound their tree counts with it before
  /// allocating.
  static std::size_t MinEncodedBytes(std::size_t num_features);
  /// Reads the class count of an encoded tree or ensemble: at least 2, and
  /// no more than the doubles left, since each class takes one (a leaf
  /// value or a base score). ParseError naming `what` otherwise.
  static std::uint32_t DecodeClassCount(persist::BinaryReader& in,
                                        const char* what);

 protected:
  enum class Species { kClassification, kRegression };
  explicit DecisionTree(Species species) : species_(species) {}

  /// Fitting appends splits in pre-order through AddSplit and leaves,
  /// each with a table entry of its own, through AddLeaf; both return the
  /// new node's child reference. CompactTable runs once the tree is
  /// complete.
  std::uint32_t AddSplit(std::size_t feature, double threshold);
  std::uint32_t AddLeaf(std::span<const double> values);
  /// Merges the entries that are equal bit for bit, numbered in first-use
  /// order, so a fitted tree's table is what Decode accepts.
  void CompactTable();

  /// Reserves the storage Decode fills for the encoded tree `encoded`, so
  /// that decoding it allocates nothing: (n - 1) / 2 splits for n nodes.
  /// Counts Decode would refuse reserve nothing.
  void Reserve(std::string_view encoded, std::size_t num_features);

  /// Empties the tree for a fit over `num_features` features of leaves
  /// `width` values wide. ContractViolation past kMaxFeatures.
  void Clear(std::size_t num_features, std::uint32_t width);

  Species species_;
  std::uint32_t width_ = 1;
  std::vector<Split> splits_;
  std::vector<std::uint16_t> features_;
  std::vector<double> table_;
  std::vector<double> importance_;
};

// ----------------------------------------------------- classification tree

struct ClassificationTreeOptions {
  int max_depth = 24;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features tried per split; 0 = all (single tree), forests pass sqrt(d).
  std::size_t max_features = 0;
  double min_impurity_decrease = 1e-12;
};

class ClassificationTree : public DecisionTree {
 public:
  explicit ClassificationTree(ClassificationTreeOptions options = {})
      : DecisionTree(Species::kClassification), options_(options) {}

  /// Fit on the rows of `data` listed in `indices` (duplicates allowed —
  /// bootstrap samples). `rng` drives feature subsampling. Leaves carry the
  /// class frequencies of their samples.
  void Fit(const Dataset& data, const std::vector<std::size_t>& indices,
           Rng& rng);

  /// Depth of the last fit (0 for a loaded tree).
  int depth() const { return depth_; }

 private:
  /// Appends the subtree of `indices` in pre-order; returns its root's
  /// child reference.
  std::uint32_t Build(const Dataset& data, std::vector<std::size_t>& indices,
                      int depth, Rng& rng);

  ClassificationTreeOptions options_;
  int depth_ = 0;
};

// -------------------------------------------------------- regression tree

struct RegressionTreeOptions {
  /// Depth cap; 0 = unlimited (useful with max_leaves).
  int max_depth = 6;
  /// Best-first growth with this many leaves at most; 0 = pure level-wise.
  int max_leaves = 0;
  /// Histogram bins for split finding; 0 = exact (sorted) splits.
  int max_bins = 0;
  double lambda = 1.0;  ///< L2 regularization on leaf values
  double gamma = 0.0;   ///< minimum split gain
  double min_child_weight = 1e-3;
  std::size_t min_samples_leaf = 1;
  std::size_t max_features = 0;  ///< 0 = all
};

/// Newton-step regression tree: fits -G/(H+lambda) leaf values to per-sample
/// gradient/hessian pairs, split gain = 1/2[GL^2/(HL+l) + GR^2/(HR+l)
/// - G^2/(H+l)] - gamma.
class RegressionTree : public DecisionTree {
 public:
  explicit RegressionTree(RegressionTreeOptions options = {})
      : DecisionTree(Species::kRegression), options_(options) {}

  /// `binner` must be non-null iff options.max_bins > 0. The tree grows
  /// best-first and is laid out in pre-order once grown.
  void Fit(const Dataset& data, const std::vector<std::size_t>& indices,
           std::span<const double> gradients, std::span<const double> hessians,
           Rng& rng, const FeatureBinner* binner);

 private:
  struct SplitResult {
    bool found = false;
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  SplitResult FindBestSplit(const Dataset& data,
                            const std::vector<std::size_t>& indices,
                            std::span<const double> gradients,
                            std::span<const double> hessians, Rng& rng,
                            const FeatureBinner* binner) const;

  RegressionTreeOptions options_;
};

}  // namespace cordial::ml
