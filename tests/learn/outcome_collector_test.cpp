// OutcomeCollector: maturity rules, hindsight labels, replay-store bounds
// and the deterministic train/holdout split.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/labeler.hpp"
#include "learn/outcome_log.hpp"

namespace cordial::learn {
namespace {

using hbm::ErrorType;

/// Builder for one synthetic bank's records: a distinct bank per index, UERs
/// at the given rows one second apart starting at `start_s`.
std::vector<trace::MceRecord> UerBurst(std::uint32_t bank,
                                       const std::vector<std::uint32_t>& rows,
                                       double start_s) {
  std::vector<trace::MceRecord> records;
  double t = start_s;
  for (const std::uint32_t row : rows) {
    trace::MceRecord r;
    r.time_s = t;
    r.address.bank = bank % 4;
    r.address.bank_group = (bank / 4) % 4;
    r.address.channel = bank / 16;  // 64 distinct banks before overflow
    r.address.row = row;
    r.type = ErrorType::kUer;
    records.push_back(r);
    t += 1.0;
  }
  return records;
}

void FeedAll(OutcomeCollector& collector,
             const std::vector<trace::MceRecord>& records) {
  for (const trace::MceRecord& r : records) {
    collector.Record(r, core::IsolationActions{});
  }
}

TEST(LearnCollector, MaturityNeedsMinUersAndHorizon) {
  hbm::TopologyConfig topology;
  CollectorConfig config;
  config.label_maturity_s = 100.0;
  config.min_uers = 3;
  OutcomeCollector collector(topology, config);

  // Bank 0: three UERs from t=0 — matures once now >= first UER + 100.
  FeedAll(collector, UerBurst(0, {10, 11, 12}, 0.0));
  // Bank 1: only two UERs — never matures regardless of horizon.
  FeedAll(collector, UerBurst(1, {20, 21}, 0.0));

  EXPECT_EQ(collector.HarvestMature(50.0), 0u);  // horizon not reached
  EXPECT_EQ(collector.HarvestMature(100.0), 1u);
  EXPECT_EQ(collector.HarvestMature(1e9), 0u);  // bank 1 still short on UERs

  const CollectorStats stats = collector.Stats();
  EXPECT_EQ(stats.replay_banks, 1u);
  EXPECT_EQ(stats.open_banks, 1u);
  EXPECT_EQ(stats.matured_total, 1u);
}

TEST(LearnCollector, LabelsMatchTheHindsightLabeler) {
  hbm::TopologyConfig topology;
  CollectorConfig config;
  config.label_maturity_s = 0.0;
  OutcomeCollector collector(topology, config);

  // A tight row cluster (single-row clustering) and a scattered bank.
  const auto clustered = UerBurst(0, {100, 101, 102, 103}, 0.0);
  const auto scattered = UerBurst(1, {10, 5000, 9000, 12000}, 0.0);
  FeedAll(collector, clustered);
  FeedAll(collector, scattered);
  ASSERT_EQ(collector.HarvestMature(collector.MaxTimeSeen()), 2u);

  const OutcomeCollector::ReplaySplit split = collector.SnapshotReplay();
  analysis::PatternLabeler labeler(topology);
  std::size_t checked = 0;
  for (const auto& list : {split.train, split.holdout}) {
    for (const auto& outcome : list) {
      EXPECT_EQ(outcome->label, labeler.LabelClass(outcome->bank));
      EXPECT_FALSE(outcome->truncated);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2u);
}

TEST(LearnCollector, OneOutcomePerBank) {
  hbm::TopologyConfig topology;
  CollectorConfig config;
  config.label_maturity_s = 0.0;
  OutcomeCollector collector(topology, config);

  FeedAll(collector, UerBurst(0, {10, 11, 12}, 0.0));
  ASSERT_EQ(collector.HarvestMature(collector.MaxTimeSeen()), 1u);

  // The bank keeps failing after harvest; those records must not spawn a
  // second (mislabelled — it would lack the early history) outcome.
  FeedAll(collector, UerBurst(0, {13, 14, 15}, 10.0));
  EXPECT_EQ(collector.HarvestMature(collector.MaxTimeSeen()), 0u);
  EXPECT_EQ(collector.Stats().replay_banks, 1u);
  EXPECT_EQ(collector.Stats().open_banks, 0u);
}

TEST(LearnCollector, PerBankEventCapTruncates) {
  hbm::TopologyConfig topology;
  CollectorConfig config;
  config.label_maturity_s = 0.0;
  config.per_bank_event_cap = 4;
  OutcomeCollector collector(topology, config);

  FeedAll(collector, UerBurst(0, {10, 11, 12, 13, 14, 15}, 0.0));
  ASSERT_EQ(collector.HarvestMature(collector.MaxTimeSeen()), 1u);
  const OutcomeCollector::ReplaySplit split = collector.SnapshotReplay();
  const auto& outcome =
      split.train.empty() ? split.holdout.front() : split.train.front();
  EXPECT_TRUE(outcome->truncated);
  EXPECT_EQ(outcome->bank.events.size(), 4u);
  EXPECT_EQ(collector.Stats().events_dropped_cap, 2u);
}

TEST(LearnCollector, ReplayStoreEvictsFifoAtCap) {
  hbm::TopologyConfig topology;
  CollectorConfig config;
  config.label_maturity_s = 0.0;
  config.max_replay_banks = 3;
  OutcomeCollector collector(topology, config);

  for (std::uint32_t bank = 0; bank < 5; ++bank) {
    FeedAll(collector, UerBurst(bank, {10, 11, 12}, bank * 10.0));
    collector.HarvestMature(collector.MaxTimeSeen());
  }
  const CollectorStats stats = collector.Stats();
  EXPECT_EQ(stats.replay_banks, 3u);
  EXPECT_EQ(stats.matured_total, 5u);
  EXPECT_EQ(stats.evicted_total, 2u);
}

TEST(LearnCollector, SplitIsDeterministicAndDisjoint) {
  hbm::TopologyConfig topology;
  CollectorConfig config;
  config.label_maturity_s = 0.0;
  config.holdout_modulus = 3;
  OutcomeCollector collector(topology, config);

  for (std::uint32_t bank = 0; bank < 30; ++bank) {
    FeedAll(collector, UerBurst(bank, {10, 11, 12}, 0.0));
  }
  collector.HarvestMature(collector.MaxTimeSeen());
  const auto split_a = collector.SnapshotReplay();
  const auto split_b = collector.SnapshotReplay();
  ASSERT_EQ(split_a.train.size(), split_b.train.size());
  ASSERT_EQ(split_a.holdout.size(), split_b.holdout.size());
  EXPECT_EQ(split_a.train.size() + split_a.holdout.size(), 30u);
  EXPECT_GT(split_a.train.size(), 0u);
  EXPECT_GT(split_a.holdout.size(), 0u);
  for (const auto& outcome : split_a.train) {
    EXPECT_FALSE(collector.IsHoldoutKey(outcome->bank.bank_key));
  }
  for (const auto& outcome : split_a.holdout) {
    EXPECT_TRUE(collector.IsHoldoutKey(outcome->bank.bank_key));
  }
  // Sorted by key: a deterministic training order regardless of the thread
  // interleaving that filled the stripes.
  for (std::size_t i = 1; i < split_a.train.size(); ++i) {
    EXPECT_LT(split_a.train[i - 1]->bank.bank_key,
              split_a.train[i]->bank.bank_key);
  }
}

TEST(LearnCollector, LiveClassMixTallies) {
  hbm::TopologyConfig topology;
  OutcomeCollector collector(topology);
  const auto records = UerBurst(0, {10, 11, 12}, 0.0);
  core::IsolationActions classified;
  classified.classified_now = true;
  classified.bank_class = hbm::FailureClass::kDoubleRowClustering;
  collector.Record(records[0], classified);
  collector.Record(records[1], core::IsolationActions{});
  const std::array<std::uint64_t, 3> mix = collector.LiveClassMix();
  EXPECT_EQ(mix[static_cast<std::size_t>(
                hbm::FailureClass::kDoubleRowClustering)],
            1u);
  EXPECT_EQ(mix[static_cast<std::size_t>(
                hbm::FailureClass::kSingleRowClustering)],
            0u);
}

}  // namespace
}  // namespace cordial::learn
