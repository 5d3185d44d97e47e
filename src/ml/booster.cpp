#include "ml/booster.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "ml/forest.hpp"
#include "persist/binary_io.hpp"

namespace cordial::ml {

namespace {

/// Softmax of `scores`, in place: subtracts the max score first.
void SoftmaxInPlace(std::span<double> scores) {
  CORDIAL_CHECK_MSG(!scores.empty(), "softmax of empty vector");
  const double max_score = *std::max_element(scores.begin(), scores.end());
  double total = 0.0;
  for (double& s : scores) {
    s = std::exp(s - max_score);
    total += s;
  }
  for (double& p : scores) p /= total;
}

}  // namespace

std::vector<double> Softmax(std::span<const double> scores) {
  std::vector<double> out(scores.begin(), scores.end());
  SoftmaxInPlace(out);
  return out;
}

GradientBoostedClassifier::GradientBoostedClassifier(std::string name,
                                                     BoosterOptions options,
                                                     bool histogram_leafwise)
    : name_(std::move(name)),
      options_(options),
      histogram_leafwise_(histogram_leafwise) {
  CORDIAL_CHECK_MSG(options_.n_rounds > 0, "booster needs at least one round");
  CORDIAL_CHECK_MSG(options_.learning_rate > 0.0,
                    "learning rate must be positive");
  CORDIAL_CHECK_MSG(options_.subsample > 0.0 && options_.subsample <= 1.0,
                    "subsample must be in (0,1]");
}

void GradientBoostedClassifier::Fit(const Dataset& train, Rng& rng) {
  CORDIAL_CHECK_MSG(!train.empty(), "cannot fit on an empty dataset");
  trees_.clear();
  num_classes_ = train.num_classes();
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t n = train.size();

  // Base score: log class prior (with +1 smoothing so empty classes are
  // representable).
  base_scores_.assign(k, 0.0);
  const std::vector<std::size_t> counts = train.ClassCounts();
  for (std::size_t c = 0; c < k; ++c) {
    base_scores_[c] = std::log((static_cast<double>(counts[c]) + 1.0) /
                               (static_cast<double>(n) + static_cast<double>(k)));
  }

  RegressionTreeOptions tree_options;
  tree_options.lambda = options_.lambda;
  tree_options.gamma = options_.gamma;
  tree_options.min_child_weight = options_.min_child_weight;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  if (histogram_leafwise_) {
    tree_options.max_depth = 0;  // LightGBM default: depth-unbounded
    tree_options.max_leaves = options_.max_leaves;
    tree_options.max_bins = options_.max_bins > 0 ? options_.max_bins : 256;
  } else {
    tree_options.max_depth = options_.max_depth;
    tree_options.max_leaves = 0;
    tree_options.max_bins = options_.max_bins;  // usually 0 -> exact
  }

  std::unique_ptr<FeatureBinner> binner;
  if (tree_options.max_bins > 0) {
    binner = std::make_unique<FeatureBinner>(train, std::vector<std::size_t>{},
                                             tree_options.max_bins);
  }

  // Current raw scores F[i][c], initialized to the base scores.
  std::vector<double> scores(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < k; ++c) scores[i * k + c] = base_scores_[c];
  }

  std::vector<double> grad(n), hess(n);
  // Row selection for one round: GOSS (which mutates grad/hess weights) or
  // plain Bernoulli subsampling.
  const auto select_rows = [&](std::vector<double>& g, std::vector<double>& h,
                               Rng& round_rng) {
    if (options_.goss) return GossSelect(g, h, round_rng);
    std::vector<std::size_t> selected;
    for (std::size_t i = 0; i < n; ++i) {
      if (options_.subsample >= 1.0 ||
          round_rng.Bernoulli(options_.subsample)) {
        selected.push_back(i);
      }
    }
    if (selected.empty()) selected.push_back(round_rng.UniformU64(n));
    return selected;
  };

  for (int round = 0; round < options_.n_rounds; ++round) {
    // Per-sample gradient and score-update loops fan out over rows: every
    // iteration writes only its own slot, so any thread count gives the
    // same result bit-for-bit.
    if (num_classes_ == 2) {
      // Binary logistic fast path: one tree per round on the class-1 score.
      ParallelFor(n, 0, [&](std::size_t i) {
        const double margin = scores[i * k + 1] - scores[i * k + 0];
        const double p = 1.0 / (1.0 + std::exp(-margin));
        const double y = train.label(i) == 1 ? 1.0 : 0.0;
        grad[i] = p - y;
        hess[i] = std::max(p * (1.0 - p), 1e-9);
      });
      const std::vector<std::size_t> round_indices =
          select_rows(grad, hess, rng);
      RegressionTree tree(tree_options);
      tree.Fit(train, round_indices, grad, hess, rng, binner.get());
      ParallelFor(n, 0, [&](std::size_t i) {
        scores[i * k + 1] +=
            options_.learning_rate * tree.Leaf(train.row(i))[0];
      });
      trees_.push_back(std::move(tree));
      continue;
    }

    for (std::size_t c = 0; c < k; ++c) {
      ParallelFor(n, 0, [&](std::size_t i) {
        const std::span<const double> row_scores(&scores[i * k], k);
        const std::vector<double> p = Softmax(row_scores);
        const double y = train.label(i) == static_cast<int>(c) ? 1.0 : 0.0;
        grad[i] = p[c] - y;
        hess[i] = std::max(p[c] * (1.0 - p[c]), 1e-9);
      });
      const std::vector<std::size_t> round_indices =
          select_rows(grad, hess, rng);
      RegressionTree tree(tree_options);
      tree.Fit(train, round_indices, grad, hess, rng, binner.get());
      ParallelFor(n, 0, [&](std::size_t i) {
        scores[i * k + c] +=
            options_.learning_rate * tree.Leaf(train.row(i))[0];
      });
      trees_.push_back(std::move(tree));
    }
  }
}

std::vector<std::size_t> GradientBoostedClassifier::GossSelect(
    std::vector<double>& gradients, std::vector<double>& hessians,
    Rng& rng) const {
  const std::size_t n = gradients.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::fabs(gradients[a]) > std::fabs(gradients[b]);
  });
  const std::size_t top_n = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.goss_top_rate *
                                  static_cast<double>(n)));
  std::vector<std::size_t> selected(order.begin(),
                                    order.begin() + std::min(top_n, n));
  const double weight =
      (1.0 - options_.goss_top_rate) / options_.goss_other_rate;
  for (std::size_t i = top_n; i < n; ++i) {
    if (!rng.Bernoulli(options_.goss_other_rate)) continue;
    const std::size_t sample = order[i];
    gradients[sample] *= weight;
    hessians[sample] *= weight;
    selected.push_back(sample);
  }
  return selected;
}

std::vector<double> GradientBoostedClassifier::FeatureImportance() const {
  std::vector<double> total;
  for (const RegressionTree& tree : trees_) {
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

void GradientBoostedClassifier::Encode(persist::BinaryWriter& out) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "cannot encode an unfitted booster");
  out.U8(static_cast<std::uint8_t>(LearnerTag::kGradientBoosted));
  out.Var(name_.size());
  out.Bytes(name_);
  out.Var(static_cast<std::uint64_t>(num_classes_));
  out.F64(options_.learning_rate);
  out.Var(trees_.size());
  for (double s : base_scores_) out.F64(s);
  DecisionTree::EncodeFramed(trees_, out);
}

std::unique_ptr<GradientBoostedClassifier> GradientBoostedClassifier::Decode(
    persist::BinaryReader& in, std::size_t num_features) {
  if (in.U8() != static_cast<std::uint8_t>(LearnerTag::kGradientBoosted)) {
    in.Fail("not a gradient-boosted model");
  }
  const std::string name(in.Bytes(in.VarCount(1)));
  const std::uint32_t classes = DecisionTree::DecodeClassCount(in, "booster");
  const double learning_rate = in.F64();
  if (!(learning_rate > 0.0)) {
    in.Fail("booster learning rate " + std::to_string(learning_rate) +
            " is not > 0");
  }
  const std::uint64_t trees =
      in.VarCount(DecisionTree::MinEncodedBytes(num_features));
  if (trees == 0) in.Fail("booster has no trees");
  BoosterOptions options;
  options.learning_rate = learning_rate;
  auto booster = std::make_unique<GradientBoostedClassifier>(
      name, options, /*histogram_leafwise=*/false);
  booster->num_classes_ = static_cast<int>(classes);
  booster->base_scores_.resize(classes);
  for (double& s : booster->base_scores_) s = in.F64();
  booster->trees_ = DecisionTree::DecodeFramed<RegressionTree>(
      in, trees, num_features, /*leaf_width=*/1);
  return booster;
}

void GradientBoostedClassifier::PredictProbaRows(std::span<const double> rows,
                                                 std::size_t row_width,
                                                 std::span<double> out) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "booster not fitted");
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t count = RowCount(rows, row_width, out, k);
  for (std::size_t r = 0; r < count; ++r) {
    std::copy(base_scores_.begin(), base_scores_.end(), out.begin() + r * k);
  }
  std::array<const double*, DecisionTree::kLanes> leaves{};
  for (std::size_t first = 0; first < count; first += leaves.size()) {
    const std::size_t lanes = std::min(leaves.size(), count - first);
    const auto group = rows.subspan(first * row_width, lanes * row_width);
    double* const scores = out.data() + first * k;
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      // Binary fast path: every tree adds to the class-1 score.
      const std::size_t cls = k == 2 ? 1 : t % k;
      trees_[t].Leaves(group, row_width, std::span(leaves.data(), lanes));
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        scores[lane * k + cls] += options_.learning_rate * leaves[lane][0];
      }
    }
  }
  for (std::size_t r = 0; r < count; ++r) SoftmaxInPlace(out.subspan(r * k, k));
}

const char* LearnerKindName(LearnerKind kind) {
  switch (kind) {
    case LearnerKind::kRandomForest: return "Random Forest";
    case LearnerKind::kXgbStyle: return "XGBoost";
    case LearnerKind::kLgbmStyle: return "LightGBM";
  }
  return "?";
}

std::unique_ptr<Classifier> MakeRandomForest(RandomForestOptions options) {
  return std::make_unique<RandomForestClassifier>(options);
}

std::unique_ptr<Classifier> MakeXgbStyleBooster(BoosterOptions options) {
  return std::make_unique<GradientBoostedClassifier>("XGBoost-style", options,
                                                     /*histogram_leafwise=*/false);
}

std::unique_ptr<Classifier> MakeLgbmStyleBooster(BoosterOptions options) {
  return std::make_unique<GradientBoostedClassifier>("LightGBM-style", options,
                                                     /*histogram_leafwise=*/true);
}

std::unique_ptr<Classifier> DecodeClassifier(persist::BinaryReader& in,
                                             std::size_t num_features) {
  // Each decoder reads and checks its own tag; peek at it through a copy.
  const std::uint8_t tag = persist::BinaryReader(in).U8();
  switch (static_cast<LearnerTag>(tag)) {
    case LearnerTag::kRandomForest:
      return RandomForestClassifier::Decode(in, num_features);
    case LearnerTag::kGradientBoosted:
      return GradientBoostedClassifier::Decode(in, num_features);
  }
  in.Fail("unknown learner tag " + std::to_string(tag));
}

std::unique_ptr<Classifier> MakeClassifier(LearnerKind kind) {
  switch (kind) {
    case LearnerKind::kRandomForest:
      return MakeRandomForest();
    case LearnerKind::kXgbStyle: {
      BoosterOptions options;
      options.max_depth = 6;
      options.n_rounds = 120;
      return MakeXgbStyleBooster(options);
    }
    case LearnerKind::kLgbmStyle: {
      BoosterOptions options;
      options.max_leaves = 31;
      options.n_rounds = 120;
      options.goss = true;
      return MakeLgbmStyleBooster(options);
    }
  }
  CORDIAL_CHECK_MSG(false, "unknown learner kind");
  return nullptr;
}

}  // namespace cordial::ml
