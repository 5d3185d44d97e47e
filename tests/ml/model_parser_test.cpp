// The model parser against crafted and truncated payloads. Model files come
// from outside the program, so every defect a payload can carry must end
// in a ParseError at load time: never an out-of-bounds read or an endless
// walk at predict time, and never an allocation sized by a corrupt count.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "common/rng.hpp"
#include "core/pattern_classifier.hpp"
#include "core/persist.hpp"
#include "ml/booster.hpp"
#include "ml/forest.hpp"
#include "ml/token_cursor.hpp"

namespace cordial::ml {
namespace {

/// A one-split forest over one feature: x <= 0.5 is class 0, else class 1.
constexpr char kStumpForest[] =
    "random_forest v1\n"
    "classes 2 trees 1\n"
    "classification_tree v1\n"
    "classes 2 nodes 3 importance 1\n"
    "0 0.5 1 2\n"
    "-1 0 -1 -1 1 0\n"
    "-1 0 -1 -1 0 1\n"
    "0.25\n";

/// The same split as a one-tree binary booster.
constexpr char kStumpBooster[] =
    "gbdt v1\n"
    "name XGBoost-style\n"
    "classes 2 learning_rate 1 trees 1\n"
    "base 0 0\n"
    "regression_tree v1\n"
    "nodes 3 importance 1\n"
    "0 0.5 1 2 0\n"
    "-1 0 -1 -1 -2\n"
    "-1 0 -1 -1 2\n"
    "0.25\n";

std::unique_ptr<Classifier> Load(const std::string& text,
                                 std::size_t num_features) {
  TokenCursor in(text);
  return LoadClassifier(in, num_features);
}

/// `text` with its first `from` replaced by `to`.
std::string With(std::string text, const std::string& from,
                 const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

void ExpectRejected(const std::string& text) {
  EXPECT_THROW(Load(text, 1), ParseError) << text;
}

TEST(ModelParser, HandWrittenStumpsLoadAndPredict) {
  const double low = 0.2, high = 0.9;
  for (const char* text : {kStumpForest, kStumpBooster}) {
    const auto model = Load(text, 1);
    EXPECT_EQ(model->Predict(std::span<const double>(&low, 1)), 0) << text;
    EXPECT_EQ(model->Predict(std::span<const double>(&high, 1)), 1) << text;
    std::ostringstream resaved;
    SaveClassifier(*model, resaved);
    EXPECT_EQ(resaved.str(), text);
  }
}

TEST(ModelParser, RejectsSplitFeatureOutsideTheModel) {
  // Loaded, this split would read features[999] of a 1-feature row.
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "999 0.5 1 2"));
  ExpectRejected(With(kStumpBooster, "0 0.5 1 2 0", "999 0.5 1 2 0"));
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "1 0.5 1 2"));
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "-2 0.5 1 2"));
}

TEST(ModelParser, RejectsChildrenThatDoNotFollowTheirParent) {
  // A self-loop: loaded, PredictProba would never return.
  ExpectRejected(With(With(kStumpForest, "nodes 3", "nodes 1"),
                      "0 0.5 1 2\n-1 0 -1 -1 1 0\n-1 0 -1 -1 0 1\n",
                      "0 0.5 0 0\n"));
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "0 0.5 1 0"));
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "0 0.5 1 3"));
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "0 0.5 -1 2"));
  ExpectRejected(With(kStumpBooster, "0 0.5 1 2 0", "0 0.5 0 0 0"));
  // A cycle through a later node: 0 -> 1 -> 0.
  ExpectRejected(With(kStumpForest, "-1 0 -1 -1 1 0", "0 0.5 0 2"));
}

TEST(ModelParser, RejectsLeafWithChildren) {
  ExpectRejected(With(kStumpForest, "-1 0 -1 -1 1 0", "-1 0 2 2 1 0"));
}

TEST(ModelParser, RejectsCountsThatDoNotFit) {
  ExpectRejected(With(kStumpForest, "importance 1", "importance -1"));
  ExpectRejected(With(kStumpForest, "nodes 3", "nodes 4000000000"));
  ExpectRejected(With(kStumpBooster, "nodes 3", "nodes 4000000000"));
  ExpectRejected(With(kStumpForest, "trees 1", "trees 4000000000"));
  ExpectRejected(With(kStumpBooster, "classes 2", "classes 4000000000"));
  ExpectRejected(With(kStumpForest, "nodes 3", "nodes 99999999999999999999"));
  // Counts the tree would accept but the model's frame contradicts.
  ExpectRejected(With(kStumpForest, "importance 1", "importance 2"));
  EXPECT_THROW(Load(kStumpForest, 2), ParseError);
}

TEST(ModelParser, BadCountsAreParseErrors) {
  ExpectRejected(With(kStumpForest, "classes 2 trees", "classes 1 trees"));
  ExpectRejected(With(kStumpForest, "classes 2 nodes", "classes 1 nodes"));
  ExpectRejected(With(kStumpForest, "classes 2 nodes", "classes 3 nodes"));
  ExpectRejected(With(kStumpForest, "nodes 3", "nodes 0"));
  ExpectRejected(With(kStumpForest, "trees 1", "trees 0"));
  ExpectRejected(With(kStumpBooster, "trees 1", "trees 0"));
  ExpectRejected(With(kStumpBooster, "classes 2", "classes 1"));
  ExpectRejected(With(kStumpBooster, "learning_rate 1", "learning_rate 0"));
  ExpectRejected(With(kStumpBooster, "learning_rate 1", "learning_rate nan"));
}

TEST(ModelParser, RejectsMalformedTokens) {
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "0 0.5x 1 2"));
  ExpectRejected(With(kStumpForest, "0 0.5 1 2", "0 0.5 1.5 2"));
  ExpectRejected(With(kStumpForest, "0.25", "1e999"));
  ExpectRejected(With(kStumpBooster, "base 0 0", "base 0"));
  ExpectRejected(With(kStumpBooster, "name XGBoost-style", "label x"));
}

/// Every prefix of `text` that ends at a token boundary, short of the
/// whole model, must be rejected.
void ExpectEveryTruncationRejected(const std::string& text,
                                   std::size_t num_features) {
  ASSERT_NO_THROW(Load(text, num_features));
  const auto space = [&](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(text[i])) != 0;
  };
  std::size_t last_token_end = text.size();
  while (last_token_end > 0 && space(last_token_end - 1)) --last_token_end;
  std::size_t checked = 0;
  for (std::size_t cut = 0; cut < last_token_end; ++cut) {
    if (cut > 0 && space(cut) == space(cut - 1)) continue;  // inside a run
    EXPECT_THROW(Load(text.substr(0, cut), num_features), ParseError)
        << "accepted a model cut at byte " << cut;
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

Dataset TwoFeatureBlobs() {
  Dataset data(2, 2);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    const double row[] = {label * 2.0 + rng.Normal(0, 0.8), rng.Normal(0, 1)};
    data.AddRow(std::span<const double>(row, 2), label);
  }
  return data;
}

TEST(ModelParser, RejectsEveryTruncationOfASavedForestAndBooster) {
  const Dataset data = TwoFeatureBlobs();
  RandomForestClassifier forest(RandomForestOptions{.n_trees = 3});
  BoosterOptions options;
  options.n_rounds = 3;
  const auto booster = MakeXgbStyleBooster(options);
  Rng rng(6);
  forest.Fit(data, rng);
  booster->Fit(data, rng);
  for (const Classifier* model : {static_cast<Classifier*>(&forest),
                                  booster.get()}) {
    std::ostringstream saved;
    SaveClassifier(*model, saved);
    ExpectEveryTruncationRejected(saved.str(), data.num_features());
  }
}

TEST(ModelParser, FramedModelWithOutOfRangeFeatureIsRejectedAtLoad) {
  core::PatternClassifier model(hbm::TopologyConfig{},
                                LearnerKind::kRandomForest);
  core::PatternClassifier rejected(hbm::TopologyConfig{},
                                   LearnerKind::kRandomForest);
  const std::size_t features = model.extractor().num_features();
  // The stump as a framed pattern model, widened to the extractor's
  // features and splitting on `feature`.
  const auto framed = [&](std::size_t feature) {
    std::string payload =
        "features " + std::to_string(features) + "\n" +
        With(With(kStumpForest, "importance 1",
                  "importance " + std::to_string(features)),
             "0 0.5 1 2", std::to_string(feature) + " 0.5 1 2");
    for (std::size_t f = 1; f < features; ++f) payload += "0\n";
    std::ostringstream out;
    WriteFramed(out, core::kPatternModelMagic, core::kModelFrameVersion,
                payload);
    return out.str();
  };

  std::istringstream last(framed(features - 1));
  EXPECT_NO_THROW(model.LoadModel(last));
  std::istringstream past(framed(features));
  EXPECT_THROW(rejected.LoadModel(past), ParseError);
  EXPECT_FALSE(rejected.trained());
}

}  // namespace
}  // namespace cordial::ml
