#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ml/booster.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "persist/binary_io.hpp"

namespace cordial::ml {
namespace {

template <typename Model>
std::string Encoded(const Model& model) {
  std::string bytes;
  persist::BinaryWriter out(bytes);
  model.Encode(out);
  return bytes;
}

std::unique_ptr<Classifier> Load(std::string_view bytes,
                                 std::size_t num_features) {
  persist::BinaryReader in(bytes, "test model");
  std::unique_ptr<Classifier> model = DecodeClassifier(in, num_features);
  in.ExpectEnd();
  return model;
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

  const std::string saved = Encoded(tree);
  persist::BinaryReader in(saved, "test tree");
  ClassificationTree restored;
  restored.Decode(in, data.num_features());
  in.ExpectEnd();
  EXPECT_EQ(restored.node_count(), tree.node_count());
  for (std::size_t i = 0; i < data.size(); i += 5) {
    EXPECT_EQ(Values(restored.Leaf(data.row(i))),
              Values(tree.Leaf(data.row(i))));
  }
  EXPECT_EQ(restored.feature_importance(), tree.feature_importance());
  EXPECT_EQ(Encoded(restored), saved);
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

  const std::string saved = Encoded(tree);
  persist::BinaryReader in(saved, "test tree");
  RegressionTree restored;
  restored.Decode(in, data.num_features());
  in.ExpectEnd();
  EXPECT_EQ(restored.node_count(), tree.node_count());
  for (std::size_t i = 0; i < data.size(); i += 7) {
    EXPECT_EQ(restored.Leaf(data.row(i))[0], tree.Leaf(data.row(i))[0]);
  }
  EXPECT_EQ(restored.table().size(), tree.table().size());
  EXPECT_EQ(Encoded(restored), saved);
}

TEST(Serialize, RandomForestRoundTrip) {
  Rng rng(3);
  const Dataset data = Blobs(50, 3, rng);
  RandomForestOptions options;
  options.n_trees = 15;
  RandomForestClassifier forest(options);
  Rng fit_rng(4);
  forest.Fit(data, fit_rng);

  const auto restored = Load(Encoded(forest), data.num_features());
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

  const auto restored = Load(Encoded(*booster), data.num_features());
  ExpectIdenticalProba(*booster, *restored, data);
  EXPECT_EQ(restored->name(), booster->name());
}

TEST(Serialize, LgbmStyleBoosterRoundTrip) {
  Rng rng(7);
  const Dataset data = Blobs(60, 3, rng);
  auto booster = MakeClassifier(LearnerKind::kLgbmStyle);
  Rng fit_rng(8);
  booster->Fit(data, fit_rng);

  const auto restored = Load(Encoded(*booster), data.num_features());
  ExpectIdenticalProba(*booster, *restored, data);
  EXPECT_EQ(restored->name(), booster->name());
}

TEST(Serialize, RoundTripSurvivesDoubleSerialization) {
  Rng rng(9);
  const Dataset data = Blobs(40, 2, rng);
  auto model = MakeRandomForest(RandomForestOptions{.n_trees = 5});
  Rng fit_rng(10);
  model->Fit(data, fit_rng);
  const std::string first = Encoded(*model);
  const std::string second = Encoded(*Load(first, data.num_features()));
  EXPECT_EQ(second, first);
  EXPECT_NO_THROW(Load(second, data.num_features()));
}

TEST(Serialize, UnfittedModelsRefuseToSerialize) {
  std::string bytes;
  persist::BinaryWriter out(bytes);
  RandomForestClassifier forest;
  EXPECT_THROW(forest.Encode(out), ContractViolation);
  auto booster = MakeXgbStyleBooster();
  EXPECT_THROW(booster->Encode(out), ContractViolation);
}

TEST(Serialize, LoadRejectsGarbage) {
  EXPECT_THROW(Load("", 3), ParseError);
  EXPECT_THROW(Load(std::string("\0", 1), 3), ParseError);  // no learner
  EXPECT_THROW(Load("not_a_model v1", 3), ParseError);
  // A forest header promising 5 trees of 3 classes, and no trees.
  EXPECT_THROW(Load("\x01\x03\x05", 3), ParseError);
}

TEST(Serialize, TreeDeserializeValidatesChildren) {
  // A decision node with no node after it for its children: classes 2, a
  // table of one entry (1, 0), nodes 1, a split on feature 0 at 0.5,
  // importance 0.
  std::string bytes;
  persist::BinaryWriter out(bytes);
  out.Var(2);
  out.Var(1);
  out.F64(1.0);
  out.F64(0.0);
  out.Var(1);
  out.Var(1);
  out.F64(0.5);
  out.F64(0.0);
  persist::BinaryReader evil(bytes, "test tree");
  ClassificationTree tree;
  EXPECT_THROW(tree.Decode(evil, 1), ParseError);
}

}  // namespace
}  // namespace cordial::ml
