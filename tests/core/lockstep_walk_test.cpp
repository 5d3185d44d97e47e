// The lockstep walk: every tree walks k rows together, and a model's k-row
// call (ml::Classifier::PredictProbaRows) must give each row, bit for bit,
// what PredictProba gives it alone. CrossRowPredictor scores an anchor's
// in-bank blocks in one such call; it must equal scoring them one by one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/framing.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/crossrow.hpp"
#include "core/persist.hpp"
#include "ml/booster.hpp"
#include "ml/forest.hpp"
#include "persist/binary_io.hpp"

namespace cordial {
namespace {

/// The two-class dataset the golden forest is fit on
/// (ParallelDeterminism.ForestSeedStableGolden).
ml::Dataset SyntheticDataset() {
  ml::Dataset data(/*num_features=*/6, /*num_classes=*/2);
  Rng rng(2024);
  for (int i = 0; i < 600; ++i) {
    const int label = static_cast<int>(rng.UniformU64(2));
    double row[6];
    for (double& v : row) v = rng.UniformReal();
    row[0] += label * 0.8;
    row[1] -= label * 0.5;
    data.AddRow(row, label);
  }
  return data;
}

/// Three classes over 6 features, each class shifting its own feature, so
/// that the trees split toward all three (the pattern model is 3-class).
ml::Dataset ThreeClassDataset() {
  ml::Dataset data(/*num_features=*/6, /*num_classes=*/3);
  Rng rng(31);
  for (int i = 0; i < 600; ++i) {
    const int label = static_cast<int>(rng.UniformU64(3));
    double row[6];
    for (double& v : row) v = rng.UniformReal();
    row[label] += 0.7;
    data.AddRow(row, label);
  }
  return data;
}

/// Two noisy classes over the cross-row extractor's width, for a forest of
/// the served shape (80 trees, depth cap 18) whose trees grow deep.
ml::Dataset WideNoisyDataset() {
  const std::size_t width = core::CrossRowFeatureExtractor(hbm::TopologyConfig{})
                                .num_features();
  ml::Dataset data(width, /*num_classes=*/2);
  Rng rng(77);
  std::vector<double> row(width);
  for (int i = 0; i < 3000; ++i) {
    for (double& v : row) v = rng.Normal(0.0, 1.0);
    const int label = row[0] + 0.5 * row[3] + rng.Normal(0.0, 1.0) > 0 ? 1 : 0;
    data.AddRow(row, label);
  }
  return data;
}

struct NamedModel {
  std::string name;
  std::unique_ptr<ml::Classifier> model;
  std::size_t width;
};

/// The golden forest, the golden XGB- and LGBM-style boosters
/// (ParallelDeterminism's recipes), a 3-class forest and XGB-style booster
/// (per-row sums of 3-wide leaves; a booster's trees rotating over the
/// classes, then a softmax per row), a forest of the served size
/// (MakeCrossRowLearner: 80 trees of depth 18) and a forest whose trees
/// are single leaves.
std::vector<NamedModel> Models() {
  std::vector<NamedModel> models;
  const ml::Dataset data = SyntheticDataset();
  SetThreadCount(1);
  {
    ml::RandomForestOptions options;
    options.n_trees = 31;
    auto forest = std::make_unique<ml::RandomForestClassifier>(options);
    Rng rng(123);
    forest->Fit(data, rng);
    models.push_back({"golden forest", std::move(forest), 6});
  }
  ml::BoosterOptions xgb;
  xgb.n_rounds = 30;
  ml::BoosterOptions lgbm = xgb;
  lgbm.max_leaves = 31;
  lgbm.goss = true;
  std::unique_ptr<ml::Classifier> boosters[] = {
      ml::MakeXgbStyleBooster(xgb), ml::MakeLgbmStyleBooster(lgbm)};
  for (std::unique_ptr<ml::Classifier>& booster : boosters) {
    Rng rng(321);
    booster->Fit(data, rng);
    models.push_back({booster->name(), std::move(booster), 6});
  }
  {
    const ml::Dataset three = ThreeClassDataset();
    auto forest = std::make_unique<ml::RandomForestClassifier>(
        ml::RandomForestOptions{.n_trees = 25});
    Rng forest_rng(41);
    forest->Fit(three, forest_rng);
    EXPECT_EQ(forest->num_classes(), 3);
    models.push_back({"3-class forest", std::move(forest), 6});
    auto booster = ml::MakeXgbStyleBooster(xgb);
    Rng booster_rng(42);
    booster->Fit(three, booster_rng);
    EXPECT_EQ(booster->num_classes(), 3);
    EXPECT_EQ(dynamic_cast<const ml::GradientBoostedClassifier&>(*booster)
                  .total_trees(),
              3u * 30u);
    models.push_back({"3-class XGBoost-style", std::move(booster), 6});
  }
  SetThreadCount(0);
  {
    const ml::Dataset wide = WideNoisyDataset();
    auto served = core::MakeCrossRowLearner(ml::LearnerKind::kRandomForest);
    Rng rng(5);
    served->Fit(wide, rng);
    const auto& trees =
        dynamic_cast<const ml::RandomForestClassifier&>(*served).trees();
    EXPECT_EQ(trees.size(), 80u);
    int deepest = 0;
    for (const ml::ClassificationTree& tree : trees) {
      deepest = std::max(deepest, tree.depth());
    }
    EXPECT_EQ(deepest, 18);
    models.push_back({"served-size forest", std::move(served),
                      wide.num_features()});
  }
  {
    ml::Dataset pure(/*num_features=*/6, /*num_classes=*/2);
    for (std::size_t i = 0; i < data.size(); ++i) pure.AddRow(data.row(i), 1);
    auto leaves = std::make_unique<ml::RandomForestClassifier>(
        ml::RandomForestOptions{.n_trees = 3});
    Rng rng(8);
    leaves->Fit(pure, rng);
    for (const ml::ClassificationTree& tree : leaves->trees()) {
      EXPECT_EQ(tree.split_count(), 0u);
    }
    models.push_back({"single-leaf trees", std::move(leaves), 6});
  }
  return models;
}

/// A split of the model's first tree: its feature and threshold, so that a
/// row can hold a value equal to it.
std::pair<std::size_t, double> FirstSplit(const ml::Classifier& model) {
  const ml::DecisionTree* tree = nullptr;
  if (const auto* forest =
          dynamic_cast<const ml::RandomForestClassifier*>(&model)) {
    tree = &forest->trees().front();
  } else {
    tree = &dynamic_cast<const ml::GradientBoostedClassifier&>(model)
                .trees()
                .front();
  }
  if (tree->split_count() == 0) return {0, 0.5};
  return {tree->split_features()[0], tree->splits()[0].threshold};
}

/// 40 rows of `width` values: random ones, and rows holding NaN, -0.0,
/// +0.0, -inf, +inf and a value equal to a split's threshold, each in
/// every feature of some row.
std::vector<double> AwkwardRows(const ml::Classifier& model,
                                std::size_t width) {
  constexpr std::size_t kRows = 40;
  const auto [split_feature, threshold] = FirstSplit(model);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             -0.0,
                             0.0,
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity(),
                             threshold};
  std::vector<double> rows(kRows * width);
  Rng rng(9);
  for (double& v : rows) v = rng.Normal(0.5, 1.0);
  for (std::size_t r = 0; r < kRows; ++r) {
    double* row = rows.data() + r * width;
    if (r % 3 == 0) {
      for (std::size_t f = 0; f < width; ++f) {
        row[f] = specials[(r / 3 + f) % std::size(specials)];
      }
    } else if (r % 3 == 1) {
      row[split_feature] = threshold;
      row[r % width] = specials[r % std::size(specials)];
    }
  }
  return rows;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(y);
         });
}

TEST(LockstepWalk, KRowsEqualKSingleRowWalksBitForBit) {
  for (const NamedModel& named : Models()) {
    SCOPED_TRACE(named.name);
    const ml::Classifier& model = *named.model;
    const std::size_t width = named.width;
    const std::vector<double> rows = AwkwardRows(model, width);
    const std::size_t pool = rows.size() / width;
    std::vector<std::vector<double>> single(pool);
    for (std::size_t r = 0; r < pool; ++r) {
      single[r] = model.PredictProba(
          std::span<const double>(rows).subspan(r * width, width));
    }
    const std::size_t classes = single.front().size();
    for (std::size_t k = 1; k <= 17; ++k) {
      for (std::size_t first = 0; first + k <= pool; first += 7) {
        std::vector<double> out(k * classes);
        model.PredictProbaRows(
            std::span<const double>(rows).subspan(first * width, k * width),
            width, out);
        for (std::size_t r = 0; r < k; ++r) {
          EXPECT_TRUE(SameBits(
              std::span<const double>(out).subspan(r * classes, classes),
              single[first + r]))
              << "k " << k << ", row " << first + r;
        }
      }
    }
  }
}

/// The leaf tuple `row` falls in, walked one split at a time from the
/// root: the reference the lockstep walk must meet.
const double* ReferenceLeaf(const ml::DecisionTree& tree,
                            std::span<const double> row) {
  std::uint32_t ref = tree.split_count() == 0 ? ml::DecisionTree::kLeafBit : 0;
  while ((ref & ml::DecisionTree::kLeafBit) == 0) {
    const ml::DecisionTree::Split& split = tree.splits()[ref];
    ref = row[tree.split_features()[ref]] <= split.threshold ? split.left
                                                             : split.right;
  }
  return tree.table().data() +
         std::size_t{ref & ~ml::DecisionTree::kLeafBit} * tree.leaf_width();
}

TEST(LockstepWalk, TreeLeavesEqualLeafPerRow) {
  for (const NamedModel& named : Models()) {
    SCOPED_TRACE(named.name);
    const std::vector<double> rows = AwkwardRows(*named.model, named.width);
    const std::size_t count = rows.size() / named.width;
    const auto check = [&](const ml::DecisionTree& tree) {
      std::vector<const double*> leaves(count);
      tree.Leaves(rows, named.width, leaves);
      for (std::size_t r = 0; r < count; ++r) {
        const std::span<const double> row =
            std::span<const double>(rows).subspan(r * named.width,
                                                  named.width);
        EXPECT_EQ(leaves[r], tree.Leaf(row).data()) << "row " << r;
        EXPECT_EQ(leaves[r], ReferenceLeaf(tree, row)) << "row " << r;
      }
    };
    if (const auto* forest =
            dynamic_cast<const ml::RandomForestClassifier*>(named.model.get())) {
      for (const ml::ClassificationTree& tree : forest->trees()) check(tree);
    } else {
      const auto& booster =
          dynamic_cast<const ml::GradientBoostedClassifier&>(*named.model);
      for (const ml::RegressionTree& tree : booster.trees()) check(tree);
    }
  }
}

TEST(LockstepWalk, RowCallRefusesBuffersOfTheWrongShape) {
  const std::vector<NamedModel> models = Models();
  const ml::Classifier& model = *models.front().model;
  const std::vector<double> rows(12, 0.5);
  std::vector<double> out(4);
  EXPECT_NO_THROW(model.PredictProbaRows(rows, 6, out));
  std::vector<double> short_out(3);
  EXPECT_THROW(model.PredictProbaRows(rows, 6, short_out), ContractViolation);
  EXPECT_THROW(model.PredictProbaRows(rows, 5, out), ContractViolation);
  EXPECT_THROW(model.PredictProbaRows(rows, 0, out), ContractViolation);
}

// ------------------------------------------------------ cross-row blocks

trace::MceRecord Uer(double t, std::uint32_t row) {
  trace::MceRecord r;
  r.time_s = t;
  r.address.row = row;
  r.type = hbm::ErrorType::kUer;
  return r;
}

trace::MceRecord Ce(double t, std::uint32_t row) {
  trace::MceRecord r = Uer(t, row);
  r.type = hbm::ErrorType::kCe;
  return r;
}

/// Banks with UERs at a stride of 24 rows from a random base, with CEs
/// around them: enough for each learner to fit both block classes.
std::vector<trace::BankHistory> TrainingBanks() {
  std::vector<trace::BankHistory> banks;
  Rng rng(3);
  for (int b = 0; b < 60; ++b) {
    trace::BankHistory bank;
    bank.bank_key = static_cast<std::uint64_t>(b);
    const auto base = static_cast<std::uint32_t>(200 + rng.UniformU64(30000));
    for (int i = 0; i < 6; ++i) {
      const auto row = base + static_cast<std::uint32_t>(i) * 24;
      bank.events.push_back(Ce(i * 100.0, row + 3));
      bank.events.push_back(Uer(i * 100.0 + 1.0, row));
    }
    banks.push_back(std::move(bank));
  }
  return banks;
}

/// The classifier `predictor` was trained to, rebuilt: the same learner
/// fit on the same dataset from the same seed.
std::unique_ptr<ml::Classifier> Rebuilt(
    const core::CrossRowPredictor& predictor, ml::LearnerKind kind,
    const std::vector<const trace::BankHistory*>& banks, std::uint64_t seed) {
  auto model = core::MakeCrossRowLearner(kind);
  Rng rng(seed);
  model->Fit(predictor.BuildDataset(banks), rng);
  // The rebuilt model is the predictor's: its bytes are the model file's
  // payload after the feature count.
  std::ostringstream saved;
  predictor.SaveModel(saved);
  const std::string file = saved.str();
  std::string_view in(file);
  persist::BinaryReader payload(
      ReadFramedView(in, core::kCrossRowModelMagic, core::kModelFrameVersion),
      "model");
  payload.Var();
  std::string encoded;
  persist::BinaryWriter out(encoded);
  model->Encode(out);
  EXPECT_EQ(encoded, payload.rest());
  return model;
}

TEST(LockstepWalk, BlockProbaEqualsScoringEachBlockAlone) {
  const hbm::TopologyConfig topology;
  const std::vector<trace::BankHistory> banks = TrainingBanks();
  std::vector<const trace::BankHistory*> pointers;
  for (const trace::BankHistory& bank : banks) pointers.push_back(&bank);
  const std::uint32_t last_row = topology.rows_per_bank - 1;
  // Anchors whose ±64-row window runs off the bank's first rows, off its
  // last rows, and one well inside it.
  const std::vector<std::vector<std::uint32_t>> probes = {
      {40, 17, 3}, {5, 0, 30}, {last_row - 70, last_row - 20, last_row - 2},
      {last_row, last_row - 9, last_row - 1}, {16000, 16024, 16048}};
  for (const ml::LearnerKind kind :
       {ml::LearnerKind::kRandomForest, ml::LearnerKind::kXgbStyle,
        ml::LearnerKind::kLgbmStyle}) {
    SCOPED_TRACE(ml::LearnerKindName(kind));
    core::CrossRowPredictor predictor(topology, kind);
    Rng rng(4);
    predictor.Train(pointers, rng);
    const std::unique_ptr<ml::Classifier> reference =
        Rebuilt(predictor, kind, pointers, 4);
    const core::CrossRowFeatureExtractor& extractor = predictor.extractor();
    for (const std::vector<std::uint32_t>& rows : probes) {
      core::BankProfile profile;
      double t = 0.0;
      for (const std::uint32_t row : rows) {
        profile.Observe(Ce(t, row));
        profile.Observe(Uer(t + 1.0, row));
        t += 50.0;
        const core::Anchor anchor{t - 49.0, row, 0};
        SCOPED_TRACE(row);
        const core::BlockWindow window = extractor.WindowAt(anchor.row);
        std::vector<double> expected(predictor.config().n_blocks, 0.0);
        std::size_t in_bank = 0;
        for (std::size_t b = 0; b < expected.size(); ++b) {
          if (!window.BlockRange(b).has_value()) continue;
          ++in_bank;
          expected[b] = reference->PredictProba(extractor.ExtractFromProfile(
              profile, anchor.time_s, anchor.row, b))[1];
        }
        EXPECT_GT(in_bank, 0u);
        EXPECT_TRUE(SameBits(
            predictor.PredictBlockProbaFromProfile(profile, anchor), expected));
      }
    }
  }
}

}  // namespace
}  // namespace cordial
