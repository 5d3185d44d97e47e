// Uniform classifier interface over the three tree learners the paper
// evaluates (Random Forest, XGBoost, LightGBM — §IV-C), plus factories.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace cordial::persist {
class BinaryWriter;
class BinaryReader;
}  // namespace cordial::persist

namespace cordial::ml {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on the full dataset. `rng` drives all stochastic choices so a
  /// (data, seed) pair determines the model exactly.
  virtual void Fit(const Dataset& train, Rng& rng) = 0;

  /// Class-probability vector, num_classes() values: PredictProbaRows of
  /// one row.
  std::vector<double> PredictProba(std::span<const double> features) const;

  /// Class probabilities of the rows held back to back in `rows`,
  /// `row_width` features each: row r's num_classes values go to
  /// out[r * num_classes, (r + 1) * num_classes). Every tree walks the rows
  /// together (DecisionTree::Leaves) and each row sums its leaves in tree
  /// order, so a row's values are bit for bit its PredictProba.
  /// ContractViolation unless `out` holds exactly that many values.
  virtual void PredictProbaRows(std::span<const double> rows,
                                std::size_t row_width,
                                std::span<double> out) const = 0;

  /// Argmax class.
  virtual int Predict(std::span<const double> features) const;

  virtual const std::string& name() const = 0;

  /// The class count of the training data or of the decoded model; 0
  /// before either.
  int num_classes() const { return num_classes_; }

  /// Per-feature importance normalized to sum 1 (empty before fitting).
  /// Forest: total Gini decrease; boosters: total split gain.
  virtual std::vector<double> FeatureImportance() const = 0;

  /// Binary encoding of the fitted model (its predict-path state and
  /// feature importance), led by its LearnerTag (DESIGN.md §16).
  virtual void Encode(persist::BinaryWriter& out) const = 0;

  /// Deep copy of the fitted model. Predictions of the clone are
  /// bit-identical to the original's, and the two are fully independent —
  /// the online refresh loop clones the champion so a challenger can train
  /// and evaluate concurrently with serving, without re-parsing a
  /// serialized stream on every evaluation round.
  virtual std::unique_ptr<Classifier> Clone() const = 0;

 protected:
  /// The number of rows PredictProbaRows was given, after checking that
  /// `rows` holds whole rows and `out` `classes` values for each.
  static std::size_t RowCount(std::span<const double> rows,
                              std::size_t row_width,
                              std::span<const double> out,
                              std::size_t classes);

  int num_classes_ = 0;
};

/// The byte an encoded classifier leads with, so deployment code can load
/// whatever the training side produced. A zeroed payload names no learner.
enum class LearnerTag : std::uint8_t {
  kRandomForest = 1,
  kGradientBoosted = 2,
};

/// Decodes the classifier Encode wrote at `in`, for a model that reads
/// `num_features` features, straight into its trees. Throws ParseError on
/// more features than a tree can split on (DecisionTree::kMaxFeatures), an
/// unknown tag, and anything its decoder refuses (see DecisionTree::Decode).
std::unique_ptr<Classifier> DecodeClassifier(persist::BinaryReader& in,
                                             std::size_t num_features);

/// The three learner families from the paper.
enum class LearnerKind {
  kRandomForest,  ///< bagged CART ensemble ("Random Forest")
  kXgbStyle,      ///< Newton boosting, exact level-wise trees ("XGBoost")
  kLgbmStyle,     ///< Newton boosting, histogram leaf-wise trees ("LightGBM")
};

const char* LearnerKindName(LearnerKind kind);

struct RandomForestOptions {
  int n_trees = 100;
  int max_depth = 24;
  std::size_t min_samples_leaf = 1;
  /// Features per split; 0 = floor(sqrt(d)).
  std::size_t max_features = 0;
  bool bootstrap = true;
};

struct BoosterOptions {
  int n_rounds = 120;
  double learning_rate = 0.1;
  int max_depth = 6;    ///< level-wise cap (XGB-style)
  int max_leaves = 31;  ///< leaf-wise cap (LGBM-style); 0 for level-wise
  int max_bins = 0;     ///< 0 = exact splits; >0 = histogram
  double lambda = 1.0;
  double gamma = 0.0;
  double min_child_weight = 1e-3;
  std::size_t min_samples_leaf = 1;
  double subsample = 0.9;  ///< row subsampling per boosting round

  /// Gradient-based One-Side Sampling (the LightGBM paper's trick): keep
  /// the goss_top_rate largest-gradient rows, sample goss_other_rate of the
  /// rest and up-weight them by (1-top)/other. Replaces plain subsampling.
  bool goss = false;
  double goss_top_rate = 0.2;
  double goss_other_rate = 0.2;
};

std::unique_ptr<Classifier> MakeRandomForest(RandomForestOptions options = {});
std::unique_ptr<Classifier> MakeXgbStyleBooster(BoosterOptions options = {});
std::unique_ptr<Classifier> MakeLgbmStyleBooster(BoosterOptions options = {});

/// Factory with per-kind tuned defaults.
std::unique_ptr<Classifier> MakeClassifier(LearnerKind kind);

}  // namespace cordial::ml
