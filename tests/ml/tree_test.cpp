#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ml/booster.hpp"
#include "ml/forest.hpp"

namespace cordial::ml {
namespace {

/// The class a classification tree predicts: its leaf's most frequent.
int PredictClass(const ClassificationTree& tree,
                 std::span<const double> features) {
  const std::span<const double> proba = tree.Leaf(features);
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) -
                          proba.begin());
}

std::vector<std::size_t> AllIndices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

/// Two Gaussian blobs separated along feature 0, plus a noise feature.
Dataset Blobs(std::size_t n_per_class, Rng& rng) {
  Dataset data(2, 2);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    const double a[] = {rng.Normal(-2.0, 0.5), rng.Normal(0.0, 1.0)};
    data.AddRow(std::span<const double>(a, 2), 0);
    const double b[] = {rng.Normal(2.0, 0.5), rng.Normal(0.0, 1.0)};
    data.AddRow(std::span<const double>(b, 2), 1);
  }
  return data;
}

/// Three overlapping classes over three features: the trees grow deep and
/// end in impure leaves as well as pure ones.
Dataset OverlappingClasses(std::size_t n_per_class, Rng& rng) {
  Dataset data(3, 3);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (int cls = 0; cls < 3; ++cls) {
      const double row[] = {cls + rng.Normal(0.0, 1.0), rng.Normal(0.0, 1.0),
                            std::floor(rng.Normal(cls, 2.0))};
      data.AddRow(std::span<const double>(row, 3), cls);
    }
  }
  return data;
}

/// Walks the subtree at child reference `ref` in pre-order, expecting its
/// first split at index `next` (splits are numbered in pre-order, so a
/// split's left child is the next split or a leaf and its right subtree
/// starts after its left one), and appends its leaves' table entries to
/// `leaves`. Returns the index after the subtree's last split.
std::uint32_t WalkSubtree(const DecisionTree& tree, std::uint32_t ref,
                          std::uint32_t next,
                          std::vector<std::uint32_t>& leaves) {
  if ((ref & DecisionTree::kLeafBit) != 0) {
    leaves.push_back(ref & ~DecisionTree::kLeafBit);
    return next;
  }
  const std::span<const DecisionTree::Split> splits = tree.splits();
  if (ref != next || ref >= splits.size()) {
    ADD_FAILURE() << "split " << ref << " where split " << next
                  << " was due, of " << splits.size();
    return static_cast<std::uint32_t>(splits.size());
  }
  const DecisionTree::Split& split = splits[ref];
  EXPECT_TRUE((split.left & DecisionTree::kLeafBit) != 0 ||
              split.left == ref + 1)
      << "left child of split " << ref;
  const std::uint32_t after_left = WalkSubtree(tree, split.left, ref + 1, leaves);
  return WalkSubtree(tree, split.right, after_left, leaves);
}

/// Expects `tree` in the split layout: its splits in pre-order and every
/// one reached, each with a feature of the model's, and its table minimal:
/// entries pairwise different bit for bit, each one some leaf's, numbered
/// in the order the leaves (in pre-order) first use them.
void ExpectPreOrderWithMinimalTable(const DecisionTree& tree) {
  const std::span<const DecisionTree::Split> splits = tree.splits();
  ASSERT_EQ(tree.split_features().size(), splits.size());
  for (const std::uint16_t feature : tree.split_features()) {
    EXPECT_LT(feature, tree.feature_importance().size());
  }
  std::vector<std::uint32_t> leaves;
  const std::uint32_t root = splits.empty() ? DecisionTree::kLeafBit : 0;
  EXPECT_EQ(WalkSubtree(tree, root, 0, leaves), splits.size());
  EXPECT_EQ(leaves.size(), tree.leaf_count());
  const std::size_t width = tree.leaf_width();
  const std::span<const double> table = tree.table();
  ASSERT_EQ(table.size() % width, 0u);
  const std::size_t entries = table.size() / width;
  std::size_t used = 0;
  for (const std::uint32_t entry : leaves) {
    ASSERT_LE(entry, used) << "entry used out of first-use order";
    if (entry == used) ++used;
  }
  EXPECT_EQ(used, entries) << "an entry no leaf uses";
  for (std::size_t a = 0; a < entries; ++a) {
    for (std::size_t b = a + 1; b < entries; ++b) {
      EXPECT_NE(std::memcmp(&table[a * width], &table[b * width],
                            width * sizeof(double)),
                0)
          << "entries " << a << " and " << b << " are equal";
    }
  }
}

// --------------------------------------------------- classification tree

TEST(ClassificationTree, FittedTreesArePreOrderWithMinimalTables) {
  Rng rng(21);
  const Dataset data = OverlappingClasses(150, rng);
  for (const int max_depth : {2, 6, 24}) {
    SCOPED_TRACE(max_depth);
    ClassificationTree tree(ClassificationTreeOptions{.max_depth = max_depth});
    tree.Fit(data, AllIndices(data.size()), rng);
    ExpectPreOrderWithMinimalTable(tree);
  }
  RandomForestClassifier forest(RandomForestOptions{.n_trees = 20});
  forest.Fit(data, rng);
  std::size_t leaves = 0;
  std::size_t entries = 0;
  for (const ClassificationTree& tree : forest.trees()) {
    ExpectPreOrderWithMinimalTable(tree);
    leaves += tree.leaf_count();
    entries += tree.table().size() / tree.leaf_width();
  }
  // Pure leaves of one class share one entry.
  EXPECT_LT(entries, leaves);
}

TEST(ClassificationTree, LearnsAxisAlignedSplit) {
  Rng rng(1);
  const Dataset data = Blobs(100, rng);
  ClassificationTree tree;
  tree.Fit(data, AllIndices(data.size()), rng);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += PredictClass(tree, data.row(i)) == data.label(i);
  }
  EXPECT_EQ(correct, static_cast<int>(data.size()));
}

TEST(ClassificationTree, LearnsXorWithDepthTwo) {
  // XOR needs two levels of splits; a depth-1 stump cannot fit it.
  Dataset data(2, 2);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double y = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double row[] = {x + rng.Normal(0, 0.05), y + rng.Normal(0, 0.05)};
    data.AddRow(std::span<const double>(row, 2), x * y > 0 ? 1 : 0);
  }
  ClassificationTree deep;
  deep.Fit(data, AllIndices(data.size()), rng);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += PredictClass(deep, data.row(i)) == data.label(i);
  }
  EXPECT_GT(correct, 195);

  ClassificationTreeOptions stump_options;
  stump_options.max_depth = 1;
  ClassificationTree stump(stump_options);
  stump.Fit(data, AllIndices(data.size()), rng);
  int stump_correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    stump_correct += PredictClass(stump, data.row(i)) == data.label(i);
  }
  EXPECT_LT(stump_correct, 140);  // ~chance for XOR
  EXPECT_LE(stump.depth(), 1);
}

TEST(ClassificationTree, PureNodeBecomesLeafImmediately) {
  Dataset data(1, 2);
  for (int i = 0; i < 10; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 1);
  }
  Rng rng(3);
  ClassificationTree tree;
  tree.Fit(data, AllIndices(data.size()), rng);
  EXPECT_EQ(tree.node_count(), 1u);
  const double x = 100.0;
  EXPECT_EQ(PredictClass(tree, std::span<const double>(&x, 1)), 1);
}

TEST(ClassificationTree, ProbaIsLeafFrequencyAndSumsToOne) {
  Dataset data(1, 2);
  // One region: 3 of class 0, 1 of class 1, not separable (same feature).
  for (int i = 0; i < 4; ++i) {
    const double x = 1.0;
    data.AddRow(std::span<const double>(&x, 1), i == 0 ? 1 : 0);
  }
  Rng rng(4);
  ClassificationTree tree;
  tree.Fit(data, AllIndices(data.size()), rng);
  const double q = 1.0;
  const auto proba = tree.Leaf(std::span<const double>(&q, 1));
  EXPECT_NEAR(proba[0], 0.75, 1e-12);
  EXPECT_NEAR(proba[1], 0.25, 1e-12);
}

TEST(ClassificationTree, MinSamplesLeafIsHonored) {
  Rng rng(5);
  const Dataset data = Blobs(50, rng);
  ClassificationTreeOptions options;
  options.min_samples_leaf = 40;
  ClassificationTree tree(options);
  tree.Fit(data, AllIndices(data.size()), rng);
  // With 100 samples and a 40-sample floor, at most one split is possible
  // per path; the tree stays tiny.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(ClassificationTree, BootstrapIndicesWithDuplicatesWork) {
  Rng rng(6);
  const Dataset data = Blobs(30, rng);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < data.size(); ++i) {
    indices.push_back(i / 2 * 2);  // duplicates, subset
  }
  ClassificationTree tree;
  tree.Fit(data, indices, rng);
  EXPECT_GE(tree.node_count(), 1u);
}

TEST(ClassificationTree, UnfittedPredictThrows) {
  ClassificationTree tree;
  const double x = 0.0;
  EXPECT_THROW(tree.Leaf(std::span<const double>(&x, 1)), ContractViolation);
}

TEST(ClassificationTree, EmptyFitThrows) {
  Rng rng(7);
  const Dataset data = Blobs(5, rng);
  ClassificationTree tree;
  EXPECT_THROW(tree.Fit(data, {}, rng), ContractViolation);
}

TEST(ClassificationTree, MoreFeaturesThanASplitCanNameAreRefusedAtFit) {
  // A split's feature is a 16-bit index: both species refuse to fit a
  // model of 65,536 features, naming the limit (DecodeClassifier refuses
  // to load one; see ModelParser).
  Dataset data(DecisionTree::kMaxFeatures + 1, 2);
  const std::vector<double> row(data.num_features(), 0.0);
  data.AddRow(row, 0);
  data.AddRow(row, 1);
  Rng rng(30);
  const auto refusal = [](const auto& fit) -> std::string {
    try {
      fit();
    } catch (const ContractViolation& e) {
      return e.what();
    }
    return "fitted";
  };
  ClassificationTree tree;
  EXPECT_NE(refusal([&] { tree.Fit(data, {0, 1}, rng); }).find("65,535"),
            std::string::npos);
  RegressionTree regression;
  const std::vector<double> g = {1.0, -1.0}, h = {1.0, 1.0};
  EXPECT_NE(refusal([&] {
              regression.Fit(data, {0, 1}, g, h, rng, nullptr);
            }).find("65,535"),
            std::string::npos);
}

// ------------------------------------------------------ regression tree

TEST(RegressionTree, NewtonLeafValueOnSingleLeaf) {
  // All samples in one leaf: value = -G/(H+lambda).
  Dataset data(1, 2);
  for (int i = 0; i < 4; ++i) {
    const double x = 1.0;  // constant feature -> no split possible
    data.AddRow(std::span<const double>(&x, 1), 0);
  }
  const std::vector<double> grad = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> hess = {1.0, 1.0, 1.0, 1.0};
  RegressionTreeOptions options;
  options.lambda = 1.0;
  RegressionTree tree(options);
  Rng rng(8);
  tree.Fit(data, AllIndices(4), grad, hess, rng, nullptr);
  const double x = 1.0;
  EXPECT_NEAR(tree.Leaf(std::span<const double>(&x, 1))[0], -4.0 / 5.0, 1e-12);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, SplitsOnStepFunction) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 20; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(i < 10 ? 1.0 : -1.0);
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.lambda = 0.0;
  options.max_depth = 1;
  RegressionTree tree(options);
  Rng rng(9);
  tree.Fit(data, AllIndices(20), grad, hess, rng, nullptr);
  EXPECT_EQ(tree.leaf_count(), 2u);
  const double lo = 3.0, hi = 15.0;
  EXPECT_NEAR(tree.Leaf(std::span<const double>(&lo, 1))[0], -1.0, 1e-9);
  EXPECT_NEAR(tree.Leaf(std::span<const double>(&hi, 1))[0], 1.0, 1e-9);
}

TEST(RegressionTree, GammaSuppressesWeakSplits) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  Rng noise(10);
  for (int i = 0; i < 50; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(noise.Normal(0.0, 0.01));  // nearly no signal
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.gamma = 10.0;  // demands large gain
  RegressionTree tree(options);
  Rng rng(11);
  tree.Fit(data, AllIndices(50), grad, hess, rng, nullptr);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, MaxLeavesCapsLeafWiseGrowth) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 64; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(std::sin(i * 0.7));  // rich structure
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.max_depth = 0;
  options.max_leaves = 4;
  RegressionTree tree(options);
  Rng rng(12);
  tree.Fit(data, AllIndices(64), grad, hess, rng, nullptr);
  EXPECT_LE(tree.leaf_count(), 4u);
  EXPECT_GE(tree.leaf_count(), 2u);
}

TEST(RegressionTree, HistogramApproximatesExactOnStep) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 100; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(i < 50 ? 2.0 : -2.0);
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.max_bins = 16;
  options.max_depth = 2;
  options.lambda = 0.0;
  FeatureBinner binner(data, {}, 16);
  RegressionTree tree(options);
  Rng rng(13);
  tree.Fit(data, AllIndices(100), grad, hess, rng, &binner);
  const double lo = 10.0, hi = 90.0;
  EXPECT_LT(tree.Leaf(std::span<const double>(&lo, 1))[0], -1.5);
  EXPECT_GT(tree.Leaf(std::span<const double>(&hi, 1))[0], 1.5);
}

TEST(RegressionTree, BinnerRequiredIffHistogramMode) {
  Dataset data(1, 2);
  const double x = 1.0;
  data.AddRow(std::span<const double>(&x, 1), 0);
  const std::vector<double> g = {1.0}, h = {1.0};
  Rng rng(14);
  RegressionTreeOptions hist_options;
  hist_options.max_bins = 8;
  RegressionTree hist_tree(hist_options);
  EXPECT_THROW(hist_tree.Fit(data, {0}, g, h, rng, nullptr),
               ContractViolation);

  FeatureBinner binner(data, {}, 8);
  RegressionTree exact_tree;
  EXPECT_THROW(exact_tree.Fit(data, {0}, g, h, rng, &binner),
               ContractViolation);
}

TEST(RegressionTree, BoosterTreesArePreOrderWithMinimalTables) {
  // XGB-style trees grow level-wise with exact splits, LGBM-style trees
  // best-first over histograms; both are laid out in pre-order once grown.
  Rng rng(22);
  const Dataset data = OverlappingClasses(100, rng);
  BoosterOptions xgb;
  xgb.n_rounds = 10;
  BoosterOptions lgbm = xgb;
  lgbm.max_leaves = 31;
  lgbm.goss = true;
  GradientBoostedClassifier xgb_style("XGBoost-style", xgb, false);
  GradientBoostedClassifier lgbm_style("LightGBM-style", lgbm, true);
  for (GradientBoostedClassifier* booster : {&xgb_style, &lgbm_style}) {
    SCOPED_TRACE(booster->name());
    booster->Fit(data, rng);
    std::size_t largest = 0;
    for (const RegressionTree& tree : booster->trees()) {
      ExpectPreOrderWithMinimalTable(tree);
      largest = std::max(largest, tree.node_count());
    }
    EXPECT_GT(largest, 15u);
  }
}

// ------------------------------------------------------------- binner

TEST(FeatureBinner, ConstantFeatureHasOneBin) {
  Dataset data(1, 2);
  for (int i = 0; i < 10; ++i) {
    const double x = 7.0;
    data.AddRow(std::span<const double>(&x, 1), 0);
  }
  FeatureBinner binner(data, {}, 16);
  EXPECT_EQ(binner.NumBins(0), 1);
  EXPECT_EQ(binner.BinOf(0, 7.0), 0);
  EXPECT_EQ(binner.BinOf(0, -100.0), 0);
}

TEST(FeatureBinner, FewDistinctValuesGetExactBins) {
  Dataset data(1, 2);
  for (double v : {1.0, 2.0, 3.0, 1.0, 2.0}) {
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  FeatureBinner binner(data, {}, 16);
  EXPECT_EQ(binner.NumBins(0), 3);
  EXPECT_EQ(binner.BinOf(0, 1.0), 0);
  EXPECT_EQ(binner.BinOf(0, 2.0), 1);
  EXPECT_EQ(binner.BinOf(0, 3.0), 2);
  EXPECT_EQ(binner.BinOf(0, 0.0), 0);
  EXPECT_EQ(binner.BinOf(0, 99.0), 2);
}

TEST(FeatureBinner, BinOfIsMonotone) {
  Dataset data(1, 2);
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(0, 10);
    data.AddRow(std::span<const double>(&x, 1), 0);
  }
  FeatureBinner binner(data, {}, 32);
  int prev = 0;
  for (double x = -40.0; x <= 40.0; x += 0.5) {
    const int bin = binner.BinOf(0, x);
    EXPECT_GE(bin, prev);
    EXPECT_LT(bin, binner.NumBins(0));
    prev = bin;
  }
}

TEST(FeatureBinner, UpperEdgeConsistentWithBinOf) {
  Dataset data(1, 2);
  for (double v : {0.0, 10.0, 20.0, 30.0}) {
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  FeatureBinner binner(data, {}, 8);
  for (int b = 0; b + 1 < binner.NumBins(0); ++b) {
    const double edge = binner.BinUpperEdge(0, b);
    EXPECT_EQ(binner.BinOf(0, edge), b);          // value <= edge -> bin b
    EXPECT_EQ(binner.BinOf(0, edge + 1e-9), b + 1);
  }
  EXPECT_TRUE(std::isinf(
      binner.BinUpperEdge(0, binner.NumBins(0) - 1)));
}

TEST(FeatureBinner, RespectsIndexSubset) {
  Dataset data(1, 2);
  for (double v : {1.0, 2.0, 1000.0}) {
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  // Build only from the first two rows.
  FeatureBinner binner(data, {0, 1}, 8);
  EXPECT_EQ(binner.NumBins(0), 2);
}

TEST(FeatureBinner, RejectsTooFewBins) {
  Dataset data(1, 2);
  const double x = 0.0;
  data.AddRow(std::span<const double>(&x, 1), 0);
  EXPECT_THROW(FeatureBinner(data, {}, 1), ContractViolation);
}

}  // namespace
}  // namespace cordial::ml
