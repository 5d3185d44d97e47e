// Logical->physical row remapping through the streaming engine: an engine
// configured with a RowMapping and fed the device's logical stream must be
// bit-identical — state bytes and stats — to an identity engine fed the
// physical stream, and must still reproduce the offline ICR replay (which
// always works in physical row space).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "core/isolation.hpp"
#include "hbm/address.hpp"
#include "trace/fleet.hpp"

namespace cordial::core {
namespace {

/// A small remapped fleet plus models trained on its physical-space banks.
struct RemapWorld {
  hbm::TopologyConfig topology;
  hbm::RowMapping mapping;
  trace::GeneratedFleet physical;      // identity-mapped reference
  trace::ErrorLog logical_log;         // the same stream in logical rows
  std::vector<trace::BankHistory> banks;
  std::vector<const trace::BankHistory*> uer_banks;
  PatternClassifier classifier;
  CrossRowPredictor single_pred;

  RemapWorld()
      : mapping(hbm::RowMapping::BitSwizzle(
            hbm::TopologyConfig{}.rows_per_bank, 3)),
        physical(MakeFleet(topology)),
        classifier(topology, ml::LearnerKind::kRandomForest),
        single_pred(topology, ml::LearnerKind::kRandomForest) {
    // Express the physical stream logically, preserving stream order: the
    // exact records a scrambling device would emit in the same sequence.
    logical_log = trace::RemapLogRowsToLogical(physical.log, mapping);

    hbm::AddressCodec codec(topology);
    banks = physical.log.GroupByBank(codec);
    analysis::PatternLabeler labeler(topology);
    std::vector<LabelledBank> labelled;
    std::vector<const trace::BankHistory*> singles;
    for (const trace::BankHistory& bank : banks) {
      if (!bank.HasUer()) continue;
      uer_banks.push_back(&bank);
      const hbm::FailureClass cls = labeler.LabelClass(bank);
      labelled.push_back(LabelledBank{&bank, cls});
      if (cls == hbm::FailureClass::kSingleRowClustering) {
        singles.push_back(&bank);
      }
    }
    Rng rng(99);
    classifier.Train(labelled, rng);
    single_pred.Train(singles, rng);
  }

  static trace::GeneratedFleet MakeFleet(const hbm::TopologyConfig& topology) {
    trace::CalibrationProfile profile;
    profile.scale = 0.08;
    // Fold a read-disturb component into the mix so the new shape flows
    // through labeling, training and the engine alongside the paper's five.
    const double keep = 0.85;
    profile.mix_single *= keep;
    profile.mix_double *= keep;
    profile.mix_half *= keep;
    profile.mix_scattered *= keep;
    profile.mix_column *= keep;
    profile.mix_read_disturb =
        1.0 - (profile.mix_single + profile.mix_double + profile.mix_half +
               profile.mix_scattered + profile.mix_column);
    return trace::FleetGenerator(topology, profile).Generate(5);
  }
};

const RemapWorld& SharedWorld() {
  static const RemapWorld* world = new RemapWorld();
  return *world;
}

std::string StateBytes(const PredictionEngine& engine) {
  std::string out;
  engine.AppendState(out);
  return out;
}

TEST(RowMappingEngine, LogicalStreamMatchesPhysicalStreamBitForBit) {
  const RemapWorld& w = SharedWorld();

  EngineConfig mapped_config;
  mapped_config.row_mapping = w.mapping;
  PredictionEngine mapped(w.topology, w.classifier, w.single_pred, nullptr,
                          mapped_config);
  for (const trace::MceRecord& record : w.logical_log.records()) {
    mapped.Observe(record);
  }

  PredictionEngine identity(w.topology, w.classifier, w.single_pred, nullptr);
  for (const trace::MceRecord& record : w.physical.log.records()) {
    identity.Observe(record);
  }

  ASSERT_GT(mapped.stats().events, 0u);
  EXPECT_EQ(mapped.stats().events, identity.stats().events);
  EXPECT_EQ(mapped.stats().uer_rows_covered, identity.stats().uer_rows_covered);
  EXPECT_EQ(mapped.stats().rows_isolated, identity.stats().rows_isolated);
  // The mapping is config, not state: both engines persist physical rows
  // and their serialized states are byte-identical.
  EXPECT_EQ(StateBytes(mapped), StateBytes(identity));
}

TEST(RowMappingEngine, StreamingUnderSwizzleMatchesIcrReplayOnPhysical) {
  const RemapWorld& w = SharedWorld();

  EngineConfig config;
  config.row_mapping = w.mapping;
  PredictionEngine engine(w.topology, w.classifier, w.single_pred, nullptr,
                          config);
  for (const trace::MceRecord& record : w.logical_log.records()) {
    engine.Observe(record);
  }

  const IcrEvaluator evaluator(w.topology);
  CordialStrategy strategy(w.classifier, w.single_pred, w.single_pred);
  const IcrResult icr = evaluator.Evaluate(w.uer_banks, strategy);

  ASSERT_GT(icr.total_uer_rows, 0u);
  EXPECT_EQ(engine.stats().uer_rows_total, icr.total_uer_rows);
  EXPECT_EQ(engine.stats().uer_rows_covered, icr.covered_rows);
  EXPECT_EQ(engine.stats().rows_isolated, icr.rows_spared);
  EXPECT_DOUBLE_EQ(engine.stats().Icr(), icr.Icr());
}

TEST(RowMappingEngine, CheckpointRoundTripsUnderAMapping) {
  const RemapWorld& w = SharedWorld();

  EngineConfig config;
  config.row_mapping = w.mapping;
  PredictionEngine engine(w.topology, w.classifier, w.single_pred, nullptr,
                          config);
  const auto& records = w.logical_log.records();
  const std::size_t half = records.size() / 2;
  for (std::size_t i = 0; i < half; ++i) engine.Observe(records[i]);

  const std::string state = StateBytes(engine);
  // The restoring engine must be constructed with the same mapping — the
  // state frame carries physical rows only (the config contract).
  PredictionEngine resumed(w.topology, w.classifier, w.single_pred, nullptr,
                           config);
  std::string_view in(state);
  resumed.CommitState(resumed.ParseState(in));
  for (std::size_t i = half; i < records.size(); ++i) {
    engine.Observe(records[i]);
    resumed.Observe(records[i]);
  }
  EXPECT_EQ(StateBytes(resumed), StateBytes(engine));
}

}  // namespace
}  // namespace cordial::core
