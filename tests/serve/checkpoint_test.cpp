// Checkpoint/restore must be invisible to the decision stream: killing the
// engine after ANY event prefix, restoring from its checkpoint and replaying
// the remainder yields byte-identical final state. Pinned as a property test
// over sampled prefixes plus the server-level (sharded) round trip.
#include "serve/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/persist.hpp"
#include "hbm/address.hpp"
#include "serve/fleet_server.hpp"
#include "trace/fleet.hpp"

namespace cordial::serve {
namespace {

struct World {
  hbm::TopologyConfig topology;
  trace::GeneratedFleet fleet;
  core::PatternClassifier classifier;
  core::CrossRowPredictor single_pred;
  core::CrossRowPredictor double_pred;
  bool double_ok = false;

  World()
      : fleet([] {
          hbm::TopologyConfig topology;
          trace::CalibrationProfile profile;
          profile.scale = 0.08;
          return trace::FleetGenerator(topology, profile).Generate(5);
        }()),
        classifier(topology, ml::LearnerKind::kRandomForest),
        single_pred(topology, ml::LearnerKind::kRandomForest),
        double_pred(topology, ml::LearnerKind::kRandomForest) {
    hbm::AddressCodec codec(topology);
    const auto banks = fleet.log.GroupByBank(codec);
    analysis::PatternLabeler labeler(topology);
    std::vector<core::LabelledBank> labelled;
    std::vector<const trace::BankHistory*> singles, doubles;
    for (const trace::BankHistory& bank : banks) {
      if (!bank.HasUer()) continue;
      const hbm::FailureClass cls = labeler.LabelClass(bank);
      labelled.push_back(core::LabelledBank{&bank, cls});
      if (cls == hbm::FailureClass::kSingleRowClustering) {
        singles.push_back(&bank);
      } else if (cls == hbm::FailureClass::kDoubleRowClustering) {
        doubles.push_back(&bank);
      }
    }
    Rng rng(99);
    classifier.Train(labelled, rng);
    single_pred.Train(singles, rng);
    try {
      double_pred.Train(doubles, rng);
      double_ok = true;
    } catch (const ContractViolation&) {
      double_ok = false;
    }
  }

  const core::CrossRowPredictor* double_or_null() const {
    return double_ok ? &double_pred : nullptr;
  }

  core::PredictionEngine MakeEngine() const {
    return core::PredictionEngine(topology, classifier, single_pred,
                                  double_or_null());
  }
};

const World& SharedWorld() {
  static const World* world = new World();
  return *world;
}

std::string StateOf(const core::PredictionEngine& engine) {
  std::string out;
  engine.AppendState(out);
  return out;
}

/// Restore `engine` from exactly one engine-state frame.
void RestoreState(core::PredictionEngine& engine, std::string_view frame) {
  core::PredictionEngine::StagedState staged = engine.ParseState(frame);
  ExpectNoTrailingBytes(frame, "engine state");
  engine.CommitState(std::move(staged));
}

std::string CheckpointOf(const FleetServer& server) {
  std::string out;
  server.AppendCheckpoint(out);
  return out;
}

TEST(EngineCheckpoint, SaveRestoreRoundTripsByteExactly) {
  const World& w = SharedWorld();
  core::PredictionEngine original = w.MakeEngine();
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    original.Observe(record);
  }
  const std::string saved = StateOf(original);

  core::PredictionEngine restored = w.MakeEngine();
  RestoreState(restored, saved);
  EXPECT_EQ(StateOf(restored), saved);
  EXPECT_EQ(restored.stats(), original.stats());
  EXPECT_EQ(restored.ledger().rows_spared(), original.ledger().rows_spared());
  EXPECT_EQ(restored.ledger().banks_spared(),
            original.ledger().banks_spared());
}

TEST(EngineCheckpoint, KillAtAnyPrefixResumesBitIdentically) {
  const World& w = SharedWorld();
  const auto& records = w.fleet.log.records();
  ASSERT_GT(records.size(), 20u);

  // Uninterrupted reference run.
  core::PredictionEngine reference = w.MakeEngine();
  for (const trace::MceRecord& record : records) reference.Observe(record);
  const std::string reference_state = StateOf(reference);

  // Kill after `k` events, restore, replay the rest: identical final state.
  // Sampled prefixes cover empty, mid-stream and full, plus a stride sweep.
  std::vector<std::size_t> prefixes = {0, 1, records.size() - 1,
                                       records.size()};
  const std::size_t stride = records.size() / 17 + 1;
  for (std::size_t k = stride; k < records.size(); k += stride) {
    prefixes.push_back(k);
  }

  // Sort so one incrementally-fed engine can serve every checkpoint in a
  // single pass over the stream.
  std::sort(prefixes.begin(), prefixes.end());
  core::PredictionEngine first_half = w.MakeEngine();
  std::size_t absorbed = 0;
  for (const std::size_t k : prefixes) {
    while (absorbed < k) {
      first_half.Observe(records[absorbed]);
      ++absorbed;
    }
    core::PredictionEngine resumed = w.MakeEngine();
    RestoreState(resumed, StateOf(first_half));
    for (std::size_t i = k; i < records.size(); ++i) {
      resumed.Observe(records[i]);
    }
    ASSERT_EQ(StateOf(resumed), reference_state) << "prefix " << k;
  }
}

TEST(EngineCheckpoint, RestoreRejectsVersionMismatchAndWrongMagic) {
  const World& w = SharedWorld();
  core::PredictionEngine engine = w.MakeEngine();
  const std::string saved = StateOf(engine);

  // Re-frame the valid payload as a future version.
  std::string_view reread(saved);
  const std::string payload(ReadFramedView(reread, core::kEngineStateMagic,
                                           core::kEngineStateVersion));
  std::string future = payload;
  CloseFrame(future, 0, core::kEngineStateMagic, core::kEngineStateVersion + 1);
  core::PredictionEngine victim = w.MakeEngine();
  EXPECT_THROW(RestoreState(victim, future), ParseError);

  std::string alien = payload;
  CloseFrame(alien, 0, "some_other_state", core::kEngineStateVersion);
  core::PredictionEngine victim2 = w.MakeEngine();
  EXPECT_THROW(RestoreState(victim2, alien), ParseError);
}

TEST(EngineCheckpoint, ServerCheckpointResumesBitIdentically) {
  const World& w = SharedWorld();
  const auto& records = w.fleet.log.records();
  const std::size_t half = records.size() / 2;
  FleetServerConfig config;
  config.shard_count = 3;

  // Uninterrupted server over the whole stream.
  FleetServer reference(w.topology, w.classifier, w.single_pred,
                        w.double_or_null(), config);
  reference.Start();
  for (const trace::MceRecord& record : records) reference.Submit(record);
  reference.Stop();

  // First half, checkpoint at the kill point.
  FleetServer first(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), config);
  first.Start();
  for (std::size_t i = 0; i < half; ++i) first.Submit(records[i]);
  first.Drain();
  const std::string checkpoint = CheckpointOf(first);
  first.Stop();

  // Fresh server restores and replays the remainder.
  FleetServer resumed(w.topology, w.classifier, w.single_pred,
                      w.double_or_null(), config);
  resumed.RestoreCheckpoint(checkpoint);
  resumed.Start();
  for (std::size_t i = half; i < records.size(); ++i) {
    resumed.Submit(records[i]);
  }
  resumed.Stop();
  EXPECT_EQ(CheckpointOf(resumed), CheckpointOf(reference));
  EXPECT_EQ(resumed.AggregateStats(), reference.AggregateStats());
}

TEST(EngineCheckpoint, ServerRejectsShardCountMismatch) {
  const World& w = SharedWorld();
  FleetServerConfig three;
  three.shard_count = 3;
  FleetServer saver(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), three);
  const std::string checkpoint = CheckpointOf(saver);

  FleetServerConfig two;
  two.shard_count = 2;
  FleetServer restorer(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), two);
  try {
    restorer.RestoreCheckpoint(checkpoint);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("shard"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cordial::serve
