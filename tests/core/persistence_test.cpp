// Train-offline / deploy-online persistence at the Cordial level.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/crossrow.hpp"
#include "core/pattern_classifier.hpp"
#include "core/persist.hpp"
#include "hbm/address.hpp"
#include "trace/fleet.hpp"

namespace cordial::core {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  static const trace::GeneratedFleet& Fleet() {
    static const trace::GeneratedFleet fleet = [] {
      hbm::TopologyConfig topology;
      trace::CalibrationProfile profile;
      profile.scale = 0.1;
      trace::FleetGenerator generator(topology, profile);
      return generator.Generate(31);
    }();
    return fleet;
  }

  static const std::vector<trace::BankHistory>& Banks() {
    static const std::vector<trace::BankHistory> banks = [] {
      hbm::AddressCodec codec(Fleet().topology);
      return Fleet().log.GroupByBank(codec);
    }();
    return banks;
  }
};

/// The bytes of a string behind a stream buffer that cannot seek.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST_F(PersistenceTest, PatternClassifierSurvivesRoundTrip) {
  analysis::PatternLabeler labeler(Fleet().topology);
  std::vector<LabelledBank> labelled;
  for (const auto& bank : Banks()) {
    if (bank.HasUer()) {
      labelled.push_back(LabelledBank{&bank, labeler.LabelClass(bank)});
    }
  }
  PatternClassifier trained(Fleet().topology, ml::LearnerKind::kRandomForest);
  Rng rng(1);
  trained.Train(labelled, rng);

  std::stringstream buffer;
  trained.SaveModel(buffer);
  const std::string saved = buffer.str();

  PatternClassifier deployed(Fleet().topology,
                             ml::LearnerKind::kRandomForest);
  EXPECT_FALSE(deployed.trained());
  deployed.LoadModel(buffer);
  EXPECT_TRUE(deployed.trained());
  // A stream that cannot seek, as a pipe cannot, is read to its end.
  UnseekableBuf pipe(saved);
  std::istream piped_in(&pipe);
  PatternClassifier piped(Fleet().topology, ml::LearnerKind::kRandomForest);
  piped.LoadModel(piped_in);
  for (const auto& lb : labelled) {
    ASSERT_EQ(deployed.Classify(*lb.bank), trained.Classify(*lb.bank));
    ASSERT_EQ(piped.Classify(*lb.bank), trained.Classify(*lb.bank));
  }
}

TEST_F(PersistenceTest, CrossRowPredictorSurvivesRoundTrip) {
  analysis::PatternLabeler labeler(Fleet().topology);
  std::vector<const trace::BankHistory*> singles;
  for (const auto& bank : Banks()) {
    if (bank.HasUer() && labeler.LabelClass(bank) ==
                             hbm::FailureClass::kSingleRowClustering) {
      singles.push_back(&bank);
    }
  }
  CrossRowPredictor trained(Fleet().topology, ml::LearnerKind::kLgbmStyle);
  Rng rng(2);
  trained.Train(singles, rng);

  std::stringstream buffer;
  trained.SaveModel(buffer);

  CrossRowPredictor deployed(Fleet().topology, ml::LearnerKind::kLgbmStyle);
  deployed.LoadModel(buffer);
  for (const auto* bank : singles) {
    for (const auto& anchor : trained.AnchorsOf(*bank)) {
      ASSERT_EQ(deployed.PredictBlockProba(*bank, anchor),
                trained.PredictBlockProba(*bank, anchor));
    }
  }
}

TEST_F(PersistenceTest, FeatureImportanceMatchesExtractorArity) {
  analysis::PatternLabeler labeler(Fleet().topology);
  std::vector<LabelledBank> labelled;
  for (const auto& bank : Banks()) {
    if (bank.HasUer()) {
      labelled.push_back(LabelledBank{&bank, labeler.LabelClass(bank)});
    }
  }
  PatternClassifier classifier(Fleet().topology,
                               ml::LearnerKind::kRandomForest);
  Rng rng(3);
  classifier.Train(labelled, rng);
  const auto importance = classifier.FeatureImportance();
  EXPECT_EQ(importance.size(), classifier.extractor().num_features());
  double total = 0.0;
  for (double v : importance) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(PersistenceTest, UntrainedSaveThrows) {
  PatternClassifier classifier(Fleet().topology,
                               ml::LearnerKind::kRandomForest);
  std::stringstream buffer;
  EXPECT_THROW(classifier.SaveModel(buffer), ContractViolation);
  CrossRowPredictor predictor(Fleet().topology,
                              ml::LearnerKind::kRandomForest);
  EXPECT_THROW(predictor.SaveModel(buffer), ContractViolation);
  EXPECT_THROW(predictor.FeatureImportance(), ContractViolation);
}

/// A stream buffer that says it holds `size` bytes and holds none.
class OversizedBuf : public std::streambuf {
 public:
  explicit OversizedBuf(std::uint64_t size) : size_(size) {}

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode) override {
    if (dir == std::ios_base::beg) at_ = off;
    if (dir == std::ios_base::cur) at_ += off;
    if (dir == std::ios_base::end) at_ = static_cast<off_type>(size_) + off;
    return pos_type(at_);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode) override {
    at_ = pos;
    return pos;
  }

 private:
  std::uint64_t size_;
  off_type at_ = 0;
};

TEST_F(PersistenceTest, LoadRejectsCorruptStream) {
  PatternClassifier classifier(Fleet().topology,
                               ml::LearnerKind::kRandomForest);
  std::istringstream garbage("garbage");
  EXPECT_THROW(classifier.LoadModel(garbage), ParseError);
  // A stream longer than any model frame is refused before it is read.
  OversizedBuf oversized(std::uint64_t{1} << 40);
  std::istream huge(&oversized);
  try {
    classifier.LoadModel(huge);
    ADD_FAILURE() << "read a 1 TiB model stream";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("more than one model frame holds"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(classifier.trained());
}

TEST_F(PersistenceTest, ModelFilesCarryVersionedMagicHeaders) {
  analysis::PatternLabeler labeler(Fleet().topology);
  std::vector<LabelledBank> labelled;
  std::vector<const trace::BankHistory*> singles;
  for (const auto& bank : Banks()) {
    if (!bank.HasUer()) continue;
    const hbm::FailureClass cls = labeler.LabelClass(bank);
    labelled.push_back(LabelledBank{&bank, cls});
    if (cls == hbm::FailureClass::kSingleRowClustering) {
      singles.push_back(&bank);
    }
  }
  Rng rng(4);
  PatternClassifier classifier(Fleet().topology,
                               ml::LearnerKind::kRandomForest);
  classifier.Train(labelled, rng);
  CrossRowPredictor predictor(Fleet().topology,
                              ml::LearnerKind::kRandomForest);
  predictor.Train(singles, rng);

  std::stringstream pattern_buf, crossrow_buf;
  classifier.SaveModel(pattern_buf);
  predictor.SaveModel(crossrow_buf);
  const std::string pattern_bytes = pattern_buf.str();
  const std::string crossrow_bytes = crossrow_buf.str();
  EXPECT_EQ(PeekMagic(pattern_bytes), kPatternModelMagic);
  EXPECT_EQ(PeekMagic(crossrow_bytes), kCrossRowModelMagic);

  // A model stream of the wrong kind is rejected by its magic, not half
  // parsed.
  CrossRowPredictor wrong_kind(Fleet().topology,
                               ml::LearnerKind::kRandomForest);
  EXPECT_THROW(wrong_kind.LoadModel(pattern_buf), ParseError);

  // A stream in the retired v4 layout (nodes with child offsets and leaf
  // values inline) or from a newer format version is rejected by its
  // version, with a message naming both versions, for either kind of
  // model. The payload is this build's: only the header's version decides.
  constexpr std::uint32_t kRetiredV4 = 4;
  const auto reframed = [](const std::string& bytes, const char* magic,
                           std::uint32_t version) {
    std::string_view in(bytes);
    std::string payload(ReadFramedView(in, magic, kModelFrameVersion));
    CloseFrame(payload, 0, magic, version);
    return payload;
  };
  const auto expect_refused = [](auto& model, const std::string& stream,
                                  const std::string& stream_is) {
    std::istringstream in(stream);
    try {
      model.LoadModel(in);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(stream_is), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(model.trained());
  };
  for (const std::uint32_t version : {kRetiredV4, kModelFrameVersion + 1}) {
    SCOPED_TRACE(version);
    const std::string stream_is = "stream is v" + std::to_string(version);
    PatternClassifier pattern(Fleet().topology,
                              ml::LearnerKind::kRandomForest);
    expect_refused(pattern,
                   reframed(pattern_bytes, kPatternModelMagic, version),
                   stream_is);
    CrossRowPredictor crossrow(Fleet().topology,
                               ml::LearnerKind::kRandomForest);
    expect_refused(crossrow,
                   reframed(crossrow_bytes, kCrossRowModelMagic, version),
                   stream_is);
  }
}

}  // namespace
}  // namespace cordial::core
