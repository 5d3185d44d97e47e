#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "persist/binary_io.hpp"

namespace cordial::ml {

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

std::vector<double> RandomForestClassifier::PredictProba(
    std::span<const double> features) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "forest not fitted");
  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<double> avg(k, 0.0);
  for (const ClassificationTree& tree : trees_) {
    const std::span<const double> leaf = tree.Leaf(features);
    for (std::size_t c = 0; c < k; ++c) avg[c] += leaf[c];
  }
  for (double& p : avg) p /= static_cast<double>(trees_.size());
  return avg;
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
