// Model-compatibility guards for the online refresh loop: feature-count
// mismatches are rejected at load time (naming both counts), and cloned
// models — the copy path the shadow trainer relies on — are bit-identical
// to their originals.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/crossrow.hpp"
#include "core/pattern_classifier.hpp"
#include "core/persist.hpp"
#include "persist/binary_io.hpp"
#include "support/fnv1a.hpp"
#include "support/serve_world.hpp"

namespace cordial::core {
namespace {

using serve::test_support::SharedWorld;
using serve::test_support::World;
using test_support::Fnv1a;

/// Re-frame a saved model with its leading feature count bumped by
/// `delta`, returning the tampered stream and the original count.
std::string TamperFeatureCount(const std::string& framed,
                               const std::string& magic, std::uint64_t delta,
                               std::uint64_t* original) {
  std::string_view in(framed);
  const std::string_view payload =
      ReadFramedView(in, magic, kModelFrameVersion);
  persist::BinaryReader reader(payload, "test");
  const std::uint64_t count = reader.Var();
  *original = count;
  std::string tampered;
  persist::BinaryWriter(tampered).Var(count + delta);
  tampered.append(payload.substr(reader.position()));
  CloseFrame(tampered, 0, magic, kModelFrameVersion);
  return tampered;
}

TEST(LearnModelCompat, PatternClassifierRejectsFeatureCountMismatch) {
  const World& world = SharedWorld();
  std::ostringstream saved;
  world.classifier.SaveModel(saved);

  std::uint64_t original = 0;
  const std::string tampered =
      TamperFeatureCount(saved.str(), kPatternModelMagic, 3, &original);
  PatternClassifier fresh(world.topology, ml::LearnerKind::kRandomForest);
  std::istringstream in(tampered);
  try {
    fresh.LoadModel(in);
    FAIL() << "mismatched feature count was accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("feature count mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(original + 3)), std::string::npos)
        << what;
    EXPECT_NE(what.find("expects " + std::to_string(original)),
              std::string::npos)
        << what;
  }
}

TEST(LearnModelCompat, CrossRowPredictorRejectsFeatureCountMismatch) {
  const World& world = SharedWorld();
  std::ostringstream saved;
  world.single_pred.SaveModel(saved);

  std::uint64_t original = 0;
  const std::string tampered =
      TamperFeatureCount(saved.str(), kCrossRowModelMagic, 5, &original);
  CrossRowPredictor fresh(world.topology, ml::LearnerKind::kRandomForest);
  std::istringstream in(tampered);
  try {
    fresh.LoadModel(in);
    FAIL() << "mismatched feature count was accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("feature count mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(original + 5)), std::string::npos)
        << what;
    EXPECT_NE(what.find("expects " + std::to_string(original)),
              std::string::npos)
        << what;
  }
}

TEST(LearnModelCompat, UntamperedModelsStillRoundTrip) {
  const World& world = SharedWorld();
  std::ostringstream saved;
  world.classifier.SaveModel(saved);
  PatternClassifier fresh(world.topology, ml::LearnerKind::kRandomForest);
  std::istringstream in(saved.str());
  fresh.LoadModel(in);
  std::ostringstream resaved;
  fresh.SaveModel(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

TEST(LearnModelCompat, ClassifierCopyIsBitIdentical) {
  const World& world = SharedWorld();
  const PatternClassifier copy(world.classifier);  // deep Clone() under it
  std::ostringstream a, b;
  world.classifier.SaveModel(a);
  copy.SaveModel(b);
  EXPECT_EQ(a.str(), b.str());

  hbm::AddressCodec codec(world.topology);
  for (const trace::BankHistory& bank : world.fleet.log.GroupByBank(codec)) {
    if (!bank.HasUer()) continue;
    EXPECT_EQ(copy.Classify(bank), world.classifier.Classify(bank));
    EXPECT_EQ(copy.ClassifyProba(bank), world.classifier.ClassifyProba(bank));
  }
}

/// A `kind` pattern classifier trained on the world's UER banks.
PatternClassifier TrainedPatternModel(ml::LearnerKind kind) {
  const World& world = SharedWorld();
  hbm::AddressCodec codec(world.topology);
  const auto banks = world.fleet.log.GroupByBank(codec);
  analysis::PatternLabeler labeler(world.topology);
  std::vector<LabelledBank> labelled;
  for (const trace::BankHistory& bank : banks) {
    if (bank.HasUer()) labelled.push_back({&bank, labeler.LabelClass(bank)});
  }
  PatternClassifier model(world.topology, kind);
  Rng rng(11);
  model.Train(labelled, rng);
  return model;
}

TEST(LearnModelCompat, BoostedClassifierCloneIsBitIdentical) {
  const PatternClassifier boosted =
      TrainedPatternModel(ml::LearnerKind::kXgbStyle);
  const PatternClassifier copy(boosted);  // exercises the booster Clone()
  std::ostringstream a, b;
  boosted.SaveModel(a);
  copy.SaveModel(b);
  EXPECT_EQ(a.str(), b.str());
}

std::string SavedPatternModel(ml::LearnerKind kind) {
  std::ostringstream out;
  TrainedPatternModel(kind).SaveModel(out);
  return out.str();
}

// SaveModel bytes of the two boosters, pinned: the tree encoder must write
// the trees in pre-order behind their tables of distinct leaf values, and
// every double as its raw bits. ParallelDeterminism.ForestSeedStableGolden
// pins the forest's bytes.
constexpr std::uint64_t kGoldenXgbModelHash = 0x6f71ae54f70f12ddULL;
constexpr std::uint64_t kGoldenLgbmModelHash = 0xa52af8bb79969befULL;

TEST(LearnModelCompat, BoosterSaveBytesGolden) {
  const std::string xgb = SavedPatternModel(ml::LearnerKind::kXgbStyle);
  const std::string lgbm = SavedPatternModel(ml::LearnerKind::kLgbmStyle);
  EXPECT_EQ(Fnv1a(xgb), kGoldenXgbModelHash) << std::hex << "0x" << Fnv1a(xgb);
  EXPECT_EQ(Fnv1a(lgbm), kGoldenLgbmModelHash)
      << std::hex << "0x" << Fnv1a(lgbm);

  // Load → save is byte-identical for both boosters too.
  for (const std::string* saved : {&xgb, &lgbm}) {
    PatternClassifier fresh(SharedWorld().topology,
                            ml::LearnerKind::kRandomForest);
    std::istringstream in(*saved);
    fresh.LoadModel(in);
    std::ostringstream resaved;
    fresh.SaveModel(resaved);
    EXPECT_EQ(resaved.str(), *saved);
  }
}

TEST(LearnModelCompat, CrossRowCopyIsBitIdentical) {
  const World& world = SharedWorld();
  const CrossRowPredictor copy(world.single_pred);
  std::ostringstream a, b;
  world.single_pred.SaveModel(a);
  copy.SaveModel(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace cordial::core
