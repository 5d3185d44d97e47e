#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ml/booster.hpp"
#include "ml/forest.hpp"
#include "ml/token_cursor.hpp"
#include "ml/tree.hpp"

namespace cordial::ml {
namespace {

std::unique_ptr<Classifier> Load(const std::string& text,
                                 std::size_t num_features) {
  TokenCursor in(text);
  return LoadClassifier(in, num_features);
}

std::vector<double> Values(std::span<const double> leaf) {
  return {leaf.begin(), leaf.end()};
}

Dataset Blobs(std::size_t n_per_class, int classes, Rng& rng) {
  Dataset data(3, classes);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (int cls = 0; cls < classes; ++cls) {
      const double row[] = {static_cast<double>(cls) * 3.0 + rng.Normal(0, 0.7),
                            rng.Normal(0, 1.0), rng.Normal(0, 1.0)};
      data.AddRow(std::span<const double>(row, 3), cls);
    }
  }
  return data;
}

template <typename Model>
void ExpectIdenticalProba(const Model& a, const Classifier& b,
                          const Dataset& data) {
  for (std::size_t i = 0; i < data.size(); i += 3) {
    EXPECT_EQ(a.PredictProba(data.row(i)), b.PredictProba(data.row(i)))
        << "row " << i;
  }
}

TEST(Serialize, ClassificationTreeRoundTrip) {
  Rng rng(1);
  const Dataset data = Blobs(60, 3, rng);
  ClassificationTree tree;
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  tree.Fit(data, all, rng);

  std::ostringstream saved;
  tree.Write(saved);
  const std::string text = saved.str();
  TokenCursor in(text);
  ClassificationTree restored;
  restored.Parse(in, data.num_features());
  EXPECT_EQ(restored.node_count(), tree.node_count());
  for (std::size_t i = 0; i < data.size(); i += 5) {
    EXPECT_EQ(Values(restored.Leaf(data.row(i))),
              Values(tree.Leaf(data.row(i))));
  }
  EXPECT_EQ(restored.feature_importance(), tree.feature_importance());
  std::ostringstream resaved;
  restored.Write(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

TEST(Serialize, RegressionTreeRoundTrip) {
  Rng rng(2);
  Dataset data(2, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 100; ++i) {
    const double row[] = {static_cast<double>(i), rng.Normal(0, 1)};
    data.AddRow(std::span<const double>(row, 2), 0);
    grad.push_back(i < 50 ? 1.0 : -1.0);
    hess.push_back(1.0);
  }
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  RegressionTree tree;
  tree.Fit(data, all, grad, hess, rng, nullptr);

  std::ostringstream saved;
  tree.Write(saved);
  const std::string text = saved.str();
  TokenCursor in(text);
  RegressionTree restored;
  restored.Parse(in, data.num_features());
  EXPECT_EQ(restored.node_count(), tree.node_count());
  for (std::size_t i = 0; i < data.size(); i += 7) {
    EXPECT_EQ(restored.Leaf(data.row(i))[0], tree.Leaf(data.row(i))[0]);
  }
  // Internal-node values are saved although prediction never reads them.
  std::ostringstream resaved;
  restored.Write(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

TEST(Serialize, RandomForestRoundTrip) {
  Rng rng(3);
  const Dataset data = Blobs(50, 3, rng);
  RandomForestOptions options;
  options.n_trees = 15;
  RandomForestClassifier forest(options);
  Rng fit_rng(4);
  forest.Fit(data, fit_rng);

  std::ostringstream buffer;
  SaveClassifier(forest, buffer);
  const auto restored = Load(buffer.str(), data.num_features());
  ExpectIdenticalProba(forest, *restored, data);
}

TEST(Serialize, XgbStyleBoosterRoundTrip) {
  Rng rng(5);
  const Dataset data = Blobs(60, 2, rng);
  BoosterOptions options;
  options.n_rounds = 12;
  auto booster = MakeXgbStyleBooster(options);
  Rng fit_rng(6);
  booster->Fit(data, fit_rng);

  std::ostringstream buffer;
  SaveClassifier(*booster, buffer);
  const auto restored = Load(buffer.str(), data.num_features());
  ExpectIdenticalProba(*booster, *restored, data);
}

TEST(Serialize, LgbmStyleBoosterRoundTrip) {
  Rng rng(7);
  const Dataset data = Blobs(60, 3, rng);
  auto booster = MakeClassifier(LearnerKind::kLgbmStyle);
  Rng fit_rng(8);
  booster->Fit(data, fit_rng);

  std::ostringstream buffer;
  SaveClassifier(*booster, buffer);
  const auto restored = Load(buffer.str(), data.num_features());
  ExpectIdenticalProba(*booster, *restored, data);
}

TEST(Serialize, RoundTripSurvivesDoubleSerialization) {
  Rng rng(9);
  const Dataset data = Blobs(40, 2, rng);
  auto model = MakeRandomForest(RandomForestOptions{.n_trees = 5});
  Rng fit_rng(10);
  model->Fit(data, fit_rng);
  std::ostringstream first, second;
  SaveClassifier(*model, first);
  const auto once = Load(first.str(), data.num_features());
  SaveClassifier(*once, second);
  EXPECT_EQ(second.str(), first.str());
  EXPECT_NO_THROW(Load(second.str(), data.num_features()));
}

TEST(Serialize, UnfittedModelsRefuseToSerialize) {
  std::stringstream buffer;
  RandomForestClassifier forest;
  EXPECT_THROW(forest.Serialize(buffer), ContractViolation);
  auto booster = MakeXgbStyleBooster();
  EXPECT_THROW(booster->Serialize(buffer), ContractViolation);
}

TEST(Serialize, LoadRejectsGarbage) {
  EXPECT_THROW(Load("", 3), ParseError);
  EXPECT_THROW(Load("not_a_model v1", 3), ParseError);
  EXPECT_THROW(Load("random_forest v1\nclasses 3 trees 5\n", 3), ParseError);
  EXPECT_THROW(Load("random_forest v2\n", 3), ParseError);
}

TEST(Serialize, TreeDeserializeValidatesChildren) {
  // A decision node whose child index points past the node table.
  TokenCursor evil(
      "classification_tree v1\nclasses 2 nodes 1 importance 1\n"
      "0 0.5 5 6\n0\n");
  ClassificationTree tree;
  EXPECT_THROW(tree.Parse(evil, 1), ParseError);
}

}  // namespace
}  // namespace cordial::ml
