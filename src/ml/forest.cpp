#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "ml/token_cursor.hpp"

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

void RandomForestClassifier::Serialize(std::ostream& out) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "cannot serialize an unfitted forest");
  out << "random_forest v1\nclasses " << num_classes_ << " trees "
      << trees_.size() << "\n";
  for (const ClassificationTree& tree : trees_) tree.Write(out);
}

std::unique_ptr<RandomForestClassifier> RandomForestClassifier::Parse(
    TokenCursor& in, std::size_t num_features) {
  in.Expect("v1");
  in.Expect("classes");
  const std::size_t classes = in.Count("forest classes", 1);
  in.Expect("trees");
  const std::size_t trees = in.Count("forest trees", 1);
  if (classes < 2 || trees < 1) throw ParseError("forest: malformed header");
  auto forest = std::make_unique<RandomForestClassifier>();
  forest->num_classes_ = static_cast<int>(classes);
  for (std::size_t t = 0; t < trees; ++t) {
    forest->trees_.emplace_back().Parse(in, num_features);
    if (forest->trees_.back().leaf_width() != classes) {
      throw ParseError("forest: tree " + std::to_string(t) +
                       " has a different class count");
    }
  }
  return forest;
}

}  // namespace cordial::ml
