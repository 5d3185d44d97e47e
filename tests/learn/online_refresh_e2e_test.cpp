// End-to-end online refresh: a weak champion serves a sharded fleet feed
// whose outcomes flow back through an OutcomeCollector; a ShadowTrainer
// round trains a challenger that beats the champion on held-out replay and
// hot-swaps it into the serving slot with zero dropped or reordered
// records; metrics and /modelz reflect the promotion; and a checkpoint
// taken after the swap restores and resumes byte-identically.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/model_slot.hpp"
#include "core/pattern_classifier.hpp"
#include "learn/outcome_log.hpp"
#include "learn/shadow_trainer.hpp"
#include "support/serve_world.hpp"

namespace cordial::learn {
namespace {

using serve::test_support::SharedWorld;
using serve::test_support::World;

TEST(LearnOnlineRefresh, EndToEndPromotionHotSwapAndCheckpoint) {
  const World& w = SharedWorld();
  const std::vector<trace::MceRecord>& records = w.fleet.log.records();

  // A deliberately starved champion: fitted on the first two UER banks
  // only. The drifted fleet mix it now faces is everything it never saw.
  hbm::AddressCodec codec(w.topology);
  const auto banks = w.fleet.log.GroupByBank(codec);
  analysis::PatternLabeler labeler(w.topology);
  std::vector<core::LabelledBank> starve;
  for (const trace::BankHistory& bank : banks) {
    if (!bank.HasUer()) continue;
    starve.push_back({&bank, labeler.LabelClass(bank)});
    if (starve.size() >= 2) break;
  }
  core::PatternClassifier weak_champion(w.topology,
                                        ml::LearnerKind::kRandomForest);
  Rng rng(7);
  weak_champion.Train(starve, rng);

  core::ModelSet boot;
  boot.classifier = core::UnownedModel(weak_champion);
  boot.single = core::UnownedModel(w.single_pred);
  if (w.double_ok) boot.double_row = core::UnownedModel(w.double_pred);
  core::ModelSlot slot(std::move(boot));

  CollectorConfig cc;
  cc.label_maturity_s = 0.0;
  cc.holdout_modulus = 3;
  OutcomeCollector collector(w.topology, cc);

  serve::FleetServerConfig config;
  config.shard_count = 3;
  config.model_slot = &slot;
  serve::FleetServer server(
      w.topology, weak_champion, w.single_pred, w.double_or_null(), config,
      [&collector](std::size_t, const trace::MceRecord& record,
                   const core::IsolationActions& actions) {
        collector.Record(record, actions);
      });
  server.Start();

  // Phase 1: serve the first half of the feed under the weak champion.
  const std::size_t half = records.size() / 2;
  server.SubmitBatch(std::span<const trace::MceRecord>(&records[0], half));
  server.Drain();
  ASSERT_GT(collector.Stats().open_banks, 0u);

  // Phase 2: one training round. The challenger (fresh fit on everything
  // the collector matured) must beat the starved champion on held-out ICR
  // without regressing macro-F1 — the real promotion gates, not test-only
  // permissive ones.
  TrainerConfig tc;
  tc.promotion_min_icr = 0.0;
  tc.min_icr_gain = 0.0;
  tc.max_f1_regression = 0.05;
  tc.min_train_outcomes = 2;
  tc.min_holdout_outcomes = 1;
  ShadowTrainer trainer(w.topology, slot, collector, tc);
  obs::MetricRegistry registry;
  trainer.AttachMetrics(registry);

  const RoundResult round = trainer.RunOnce();
  ASSERT_TRUE(round.trained) << round.skip_reason;
  ASSERT_TRUE(round.promoted) << round.skip_reason;
  EXPECT_GE(round.challenger_icr, round.champion_icr);
  EXPECT_EQ(round.published_version, 2u);
  EXPECT_EQ(slot.version(), 2u);
  EXPECT_GE(round.drift.mix_divergence, 0.0);
  EXPECT_LE(round.drift.mix_divergence, 1.0);

  // Phase 3: serve the rest of the feed — every shard adopts generation 2
  // at its next record boundary.
  server.SubmitBatch(
      std::span<const trace::MceRecord>(&records[half], records.size() - half));
  server.Stop();
  for (const std::uint64_t version : server.ModelVersions()) {
    EXPECT_EQ(version, 2u);
  }

  // Zero dropped, zero reordered: every submitted record was processed.
  const serve::ShardCounters counters = server.AggregateCounters();
  EXPECT_EQ(counters.submitted, records.size());
  EXPECT_EQ(counters.processed, records.size());
  EXPECT_EQ(counters.dropped_oldest, 0u);
  EXPECT_EQ(counters.rejected, 0u);

  // The promotion is visible in metrics and on /modelz.
  const obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(obs::SumCounterSamples(snap, "cordial_learn_promotions_total"),
            1u);
  EXPECT_EQ(obs::SumGaugeSamples(snap, "cordial_learn_model_version"), 2);
  EXPECT_GT(obs::SumGaugeSamples(snap, "cordial_learn_replay_banks"), 0);
  const std::string page = trainer.StatusPage();
  EXPECT_NE(page.find("slot version: 2"), std::string::npos) << page;
  EXPECT_NE(page.find("PROMOTED as generation 2"), std::string::npos) << page;

  // Phase 4: the checkpoint taken after the swap carries no model-version
  // state — it restores into a fresh slot-attached server byte-identically.
  std::ostringstream checkpoint;
  server.SaveCheckpoint(checkpoint);
  serve::FleetServer restored(w.topology, weak_champion, w.single_pred,
                              w.double_or_null(), config);
  restored.RestoreCheckpoint(checkpoint.str());
  std::ostringstream resaved;
  restored.SaveCheckpoint(resaved);
  EXPECT_EQ(resaved.str(), checkpoint.str());
  EXPECT_EQ(restored.AggregateStats(), server.AggregateStats());
}

}  // namespace
}  // namespace cordial::learn
