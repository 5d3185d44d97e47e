#include "core/crossrow.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/persist.hpp"

namespace cordial::core {

using hbm::ErrorType;

namespace {

/// The cross-row model's classes: a block fails (1) or it does not (0).
constexpr int kBlockClasses = 2;

}  // namespace

std::unique_ptr<ml::Classifier> MakeCrossRowLearner(ml::LearnerKind kind) {
  switch (kind) {
    case ml::LearnerKind::kRandomForest: {
      ml::RandomForestOptions options;
      options.n_trees = 80;
      options.max_depth = 18;
      return ml::MakeRandomForest(options);
    }
    case ml::LearnerKind::kXgbStyle: {
      ml::BoosterOptions options;
      options.n_rounds = 80;
      options.max_depth = 6;
      options.max_bins = 64;  // histogram splits: block datasets are large
      return ml::MakeXgbStyleBooster(options);
    }
    case ml::LearnerKind::kLgbmStyle: {
      ml::BoosterOptions options;
      options.n_rounds = 80;
      options.max_leaves = 31;
      options.max_bins = 64;
      return ml::MakeLgbmStyleBooster(options);
    }
  }
  CORDIAL_CHECK_MSG(false, "unknown learner kind");
  return nullptr;
}

CrossRowPredictor::CrossRowPredictor(const hbm::TopologyConfig& topology,
                                     ml::LearnerKind kind,
                                     CrossRowConfig config)
    : topology_(topology),
      extractor_(topology, config.block_size, config.n_blocks),
      config_(config),
      model_(MakeCrossRowLearner(kind)) {
  CORDIAL_CHECK_MSG(config_.trigger_uers >= 1, "trigger must be >= 1");
  CORDIAL_CHECK_MSG(config_.max_anchors_per_bank >= 1,
                    "need at least one anchor per bank");
  CORDIAL_CHECK_MSG(
      config_.positive_threshold > 0.0 && config_.positive_threshold < 1.0,
      "positive threshold must be in (0,1)");
}

std::vector<Anchor> CrossRowPredictor::AnchorsOf(
    const trace::BankHistory& bank) const {
  std::vector<Anchor> anchors;
  std::size_t ordinal = 0;
  for (const trace::MceRecord& r : bank.events) {
    if (r.type != ErrorType::kUer) continue;
    ++ordinal;
    if (ordinal < config_.trigger_uers) continue;
    if (!anchors.empty() && anchors.back().row == r.address.row) continue;
    anchors.push_back(Anchor{r.time_s, r.address.row, ordinal});
    if (anchors.size() >= config_.max_anchors_per_bank) break;
  }
  return anchors;
}

std::vector<std::pair<std::uint32_t, double>> CrossRowPredictor::FirstFailures(
    const trace::BankHistory& bank) {
  std::vector<std::pair<std::uint32_t, double>> firsts;
  std::set<std::uint32_t> seen;
  for (const trace::MceRecord& r : bank.events) {
    if (r.type != ErrorType::kUer) continue;
    if (seen.insert(r.address.row).second) {
      firsts.emplace_back(r.address.row, r.time_s);
    }
  }
  return firsts;
}

std::vector<int> CrossRowPredictor::BlockTruth(const trace::BankHistory& bank,
                                               const Anchor& anchor) const {
  const BlockWindow window = extractor_.WindowAt(anchor.row);
  std::vector<int> truth(config_.n_blocks, 0);
  for (const auto& [row, first_t] : FirstFailures(bank)) {
    if (first_t <= anchor.time_s) continue;  // already failed
    const auto block = window.BlockOf(row);
    if (block.has_value()) truth[*block] = 1;
  }
  return truth;
}

ml::Dataset CrossRowPredictor::BuildDataset(
    const std::vector<const trace::BankHistory*>& banks) const {
  ml::Dataset data(extractor_.num_features(), kBlockClasses,
                   extractor_.feature_names());
  for (const trace::BankHistory* bank : banks) {
    CORDIAL_CHECK_MSG(bank != nullptr, "null bank in training set");
    // One profile per bank, advanced anchor by anchor: O(events) total
    // instead of a history rescan per (anchor, block).
    BankProfile profile;
    std::size_t cursor = 0;
    for (const Anchor& anchor : AnchorsOf(*bank)) {
      while (cursor < bank->events.size() &&
             bank->events[cursor].time_s <= anchor.time_s) {
        profile.Observe(bank->events[cursor]);
        ++cursor;
      }
      const BlockWindow window = extractor_.WindowAt(anchor.row);
      const std::vector<int> truth = BlockTruth(*bank, anchor);
      for (std::size_t b = 0; b < config_.n_blocks; ++b) {
        if (!window.BlockRange(b).has_value()) continue;  // outside the bank
        data.AddRow(extractor_.ExtractFromProfile(profile, anchor.time_s,
                                                  anchor.row, b),
                    truth[b]);
      }
    }
  }
  return data;
}

void CrossRowPredictor::Train(
    const std::vector<const trace::BankHistory*>& banks, Rng& rng) {
  const ml::Dataset data = BuildDataset(banks);
  CORDIAL_CHECK_MSG(!data.empty(), "no training samples for cross-row model");
  const std::vector<std::size_t> counts = data.ClassCounts();
  CORDIAL_CHECK_MSG(counts[0] > 0 && counts[1] > 0,
                    "cross-row training data must contain both classes");
  model_->Fit(data, rng);
  trained_ = true;
}

std::vector<double> CrossRowPredictor::PredictBlockProba(
    const trace::BankHistory& bank, const Anchor& anchor) const {
  BankProfile profile;
  for (const trace::MceRecord& r : bank.events) {
    if (r.time_s > anchor.time_s) break;
    profile.Observe(r);
  }
  return PredictBlockProbaFromProfile(profile, anchor);
}

std::vector<int> CrossRowPredictor::PredictBlocks(
    const trace::BankHistory& bank, const Anchor& anchor) const {
  const std::vector<double> proba = PredictBlockProba(bank, anchor);
  std::vector<int> predictions(proba.size(), 0);
  for (std::size_t b = 0; b < proba.size(); ++b) {
    predictions[b] = proba[b] >= config_.positive_threshold ? 1 : 0;
  }
  return predictions;
}

std::vector<double> CrossRowPredictor::PredictBlockProbaFromProfile(
    const BankProfile& profile, const Anchor& anchor) const {
  CORDIAL_CHECK_MSG(trained_, "cross-row predictor not trained");
  constexpr auto kClasses = static_cast<std::size_t>(kBlockClasses);
  const BlockWindow window = extractor_.WindowAt(anchor.row);
  const std::size_t width = extractor_.num_features();
  const std::size_t blocks = config_.n_blocks;
  // One buffer per thread, reused by every anchor: the in-bank blocks'
  // feature rows back to back, then their class probabilities. Every tree
  // walks the rows together (ml::Classifier::PredictProbaRows).
  thread_local std::vector<double> buffer;
  buffer.resize(blocks * (width + kClasses));
  const std::span<double> rows(buffer.data(), blocks * width);
  std::size_t in_bank = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!window.BlockRange(b).has_value()) continue;
    extractor_.ExtractFromProfile(profile, anchor.time_s, anchor.row, b,
                                  rows.subspan(in_bank * width, width));
    ++in_bank;
  }
  const std::span<double> block_proba(buffer.data() + blocks * width,
                                      in_bank * kClasses);
  model_->PredictProbaRows(rows.first(in_bank * width), width, block_proba);
  std::vector<double> proba(blocks, 0.0);
  in_bank = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!window.BlockRange(b).has_value()) continue;
    proba[b] = block_proba[in_bank * kClasses + 1];
    ++in_bank;
  }
  return proba;
}

std::vector<int> CrossRowPredictor::PredictBlocksFromProfile(
    const BankProfile& profile, const Anchor& anchor) const {
  const std::vector<double> proba =
      PredictBlockProbaFromProfile(profile, anchor);
  std::vector<int> predictions(proba.size(), 0);
  for (std::size_t b = 0; b < proba.size(); ++b) {
    predictions[b] = proba[b] >= config_.positive_threshold ? 1 : 0;
  }
  return predictions;
}

void CrossRowPredictor::SaveModel(std::ostream& out) const {
  CORDIAL_CHECK_MSG(trained_, "cannot save an untrained predictor");
  SaveModelFrame(out, kCrossRowModelMagic, extractor_.num_features(), *model_);
}

void CrossRowPredictor::LoadModel(std::istream& in) {
  model_ = LoadModelFrame(in, kCrossRowModelMagic, "crossrow model",
                          extractor_.num_features(), kBlockClasses);
  trained_ = true;
}

CrossRowPredictor::CrossRowPredictor(const CrossRowPredictor& other)
    : topology_(other.topology_),
      extractor_(other.extractor_),
      config_(other.config_),
      model_(other.model_->Clone()),
      trained_(other.trained_) {}

std::vector<double> CrossRowPredictor::FeatureImportance() const {
  CORDIAL_CHECK_MSG(trained_, "cross-row predictor not trained");
  return model_->FeatureImportance();
}

}  // namespace cordial::core
