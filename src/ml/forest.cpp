#include "ml/forest.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "persist/binary_io.hpp"

namespace cordial::ml {

std::size_t Classifier::RowCount(std::span<const double> rows,
                                 std::size_t row_width,
                                 std::span<const double> out,
                                 std::size_t classes) {
  CORDIAL_CHECK_MSG(row_width > 0 && rows.size() % row_width == 0,
                    "rows are not whole rows of row_width features");
  const std::size_t count = rows.size() / row_width;
  CORDIAL_CHECK_MSG(out.size() == count * classes,
                    "output holds other than num_classes values a row");
  return count;
}

std::vector<double> Classifier::PredictProba(
    std::span<const double> features) const {
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));
  PredictProbaRows(features, features.size(), proba);
  return proba;
}

int Classifier::Predict(std::span<const double> features) const {
  const std::vector<double> proba = PredictProba(features);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

RandomForestClassifier::RandomForestClassifier(RandomForestOptions options)
    : options_(options) {
  CORDIAL_CHECK_MSG(options_.n_trees > 0, "forest needs at least one tree");
}

void RandomForestClassifier::Fit(const Dataset& train, Rng& rng) {
  CORDIAL_CHECK_MSG(!train.empty(), "cannot fit on an empty dataset");
  trees_.clear();
  num_classes_ = train.num_classes();

  ClassificationTreeOptions tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features =
      options_.max_features > 0
          ? options_.max_features
          : static_cast<std::size_t>(std::max(
                1.0, std::floor(std::sqrt(
                         static_cast<double>(train.num_features())))));

  const std::size_t n = train.size();
  // One draw advances the caller's stream (so back-to-back fits differ);
  // every tree then forks the resulting stream at its own index. Bootstrap
  // indices come from the fork, not the shared stream, which makes each
  // tree a pure function of (salt, t) — trainable on any thread in any
  // order with a bit-identical forest.
  const Rng forker(rng.Next());
  trees_.assign(static_cast<std::size_t>(options_.n_trees),
                ClassificationTree(tree_options));
  ParallelFor(trees_.size(), 1, [&](std::size_t t) {
    Rng tree_rng = forker.Fork(t);
    std::vector<std::size_t> indices(n);
    if (options_.bootstrap) {
      for (std::size_t i = 0; i < n; ++i) {
        indices[i] = static_cast<std::size_t>(tree_rng.UniformU64(n));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) indices[i] = i;
    }
    trees_[t].Fit(train, indices, tree_rng);
  });
}

void RandomForestClassifier::PredictProbaRows(std::span<const double> rows,
                                              std::size_t row_width,
                                              std::span<double> out) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "forest not fitted");
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t count = RowCount(rows, row_width, out, k);
  std::fill(out.begin(), out.end(), 0.0);
  std::array<const double*, DecisionTree::kLanes> leaves{};
  for (std::size_t first = 0; first < count; first += leaves.size()) {
    const std::size_t lanes = std::min(leaves.size(), count - first);
    const auto group = rows.subspan(first * row_width, lanes * row_width);
    double* const sums = out.data() + first * k;
    for (const ClassificationTree& tree : trees_) {
      tree.Leaves(group, row_width, std::span(leaves.data(), lanes));
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t c = 0; c < k; ++c) sums[lane * k + c] += leaves[lane][c];
      }
    }
  }
  for (double& p : out) p /= static_cast<double>(trees_.size());
}

std::vector<double> RandomForestClassifier::FeatureImportance() const {
  std::vector<double> total;
  for (const ClassificationTree& tree : trees_) {
    const std::vector<double>& imp = tree.feature_importance();
    if (total.empty()) total.assign(imp.size(), 0.0);
    for (std::size_t f = 0; f < imp.size(); ++f) total[f] += imp[f];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

void RandomForestClassifier::Encode(persist::BinaryWriter& out) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "cannot encode an unfitted forest");
  out.U8(static_cast<std::uint8_t>(LearnerTag::kRandomForest));
  out.Var(static_cast<std::uint64_t>(num_classes_));
  out.Var(trees_.size());
  DecisionTree::EncodeFramed(trees_, out);
}

std::unique_ptr<RandomForestClassifier> RandomForestClassifier::Decode(
    persist::BinaryReader& in, std::size_t num_features) {
  if (in.U8() != static_cast<std::uint8_t>(LearnerTag::kRandomForest)) {
    in.Fail("not a random forest");
  }
  const std::uint32_t classes = DecisionTree::DecodeClassCount(in, "forest");
  const std::uint64_t trees =
      in.VarCount(DecisionTree::MinEncodedBytes(num_features));
  if (trees == 0) in.Fail("forest has no trees");
  auto forest = std::make_unique<RandomForestClassifier>();
  forest->num_classes_ = static_cast<int>(classes);
  forest->trees_ = DecisionTree::DecodeFramed<ClassificationTree>(
      in, trees, num_features, classes);
  return forest;
}

}  // namespace cordial::ml
