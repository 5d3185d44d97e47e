// Random Forest classifier: bootstrap-bagged CART trees with per-split
// feature subsampling and probability averaging.
#pragma once

#include "ml/classifier.hpp"
#include "ml/tree.hpp"

namespace cordial::ml {

class RandomForestClassifier final : public Classifier {
 public:
  explicit RandomForestClassifier(RandomForestOptions options = {});

  void Fit(const Dataset& train, Rng& rng) override;
  void PredictProbaRows(std::span<const double> rows, std::size_t row_width,
                        std::span<double> out) const override;
  const std::string& name() const override { return name_; }
  std::vector<double> FeatureImportance() const override;
  /// Tag, class count, tree count, then the trees, each behind its length
  /// (DecisionTree::EncodeFramed).
  void Encode(persist::BinaryWriter& out) const override;
  /// Reads an encoded forest, its trees decoded on the shared pool (see
  /// DecisionTree::DecodeFramed and Decode for what they refuse).
  /// ParseError also on another tag, fewer than 2 classes, no trees, or a
  /// tree whose class count differs from the forest's.
  static std::unique_ptr<RandomForestClassifier> Decode(
      persist::BinaryReader& in, std::size_t num_features);
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<RandomForestClassifier>(*this);
  }

  std::size_t tree_count() const { return trees_.size(); }
  const std::vector<ClassificationTree>& trees() const { return trees_; }

 private:
  RandomForestOptions options_;
  std::vector<ClassificationTree> trees_;
  std::string name_ = "RandomForest";
};

}  // namespace cordial::ml
