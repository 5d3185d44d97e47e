// Gradient-boosted tree classifier with a softmax objective.
//
// Newton boosting: per round, per class, fit a RegressionTree to the softmax
// gradient g = p - y and hessian h = p(1-p), then add learning_rate * tree to
// the class score. Two configurations reproduce the paper's boosters:
//   XGBoost-style : exact split finding, level-wise growth to max_depth.
//   LightGBM-style: histogram split finding, leaf-wise growth to max_leaves.
// Binary problems use the same machinery with two classes.
#pragma once

#include "ml/classifier.hpp"
#include "ml/tree.hpp"

namespace cordial::ml {

class GradientBoostedClassifier final : public Classifier {
 public:
  GradientBoostedClassifier(std::string name, BoosterOptions options,
                            bool histogram_leafwise);

  void Fit(const Dataset& train, Rng& rng) override;
  void PredictProbaRows(std::span<const double> rows, std::size_t row_width,
                        std::span<double> out) const override;
  const std::string& name() const override { return name_; }
  std::vector<double> FeatureImportance() const override;
  /// Tag, name, class count, learning rate, tree count, the per-class base
  /// scores, then the trees, each behind its length
  /// (DecisionTree::EncodeFramed).
  void Encode(persist::BinaryWriter& out) const override;
  /// Reads an encoded booster, its trees decoded on the shared pool (see
  /// DecisionTree::DecodeFramed and Decode for what they refuse).
  /// ParseError also on another tag, fewer than 2 classes, a learning rate
  /// that is not > 0 (NaN included), or no trees.
  static std::unique_ptr<GradientBoostedClassifier> Decode(
      persist::BinaryReader& in, std::size_t num_features);
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GradientBoostedClassifier>(*this);
  }

  std::size_t total_trees() const { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const { return trees_; }

 private:
  /// GOSS row selection: mutates grad/hess (up-weights the sampled
  /// small-gradient rows) and returns the selected row indices.
  std::vector<std::size_t> GossSelect(std::vector<double>& gradients,
                                      std::vector<double>& hessians,
                                      Rng& rng) const;

  std::string name_;
  BoosterOptions options_;
  bool histogram_leafwise_;
  std::vector<double> base_scores_;          ///< log prior per class
  std::vector<RegressionTree> trees_;        ///< round-major, class-minor
};

/// Numerically-stable softmax (subtracts the max score).
std::vector<double> Softmax(std::span<const double> scores);

}  // namespace cordial::ml
