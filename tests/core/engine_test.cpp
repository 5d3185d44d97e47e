// PredictionEngine: the live streaming path must reproduce the offline ICR
// replay exactly (same models, same fleet, same sparing budgets), keep one
// profile per bank, and enforce its contracts — the feed-order (skew) gate
// included, across checkpoint restores.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "core/isolation.hpp"
#include "hbm/address.hpp"
#include "trace/fleet.hpp"

namespace cordial::core {
namespace {

/// Small fleet plus models trained on it, built once and shared read-only.
struct World {
  hbm::TopologyConfig topology;
  trace::GeneratedFleet fleet;
  std::vector<trace::BankHistory> banks;
  std::vector<const trace::BankHistory*> uer_banks;
  PatternClassifier classifier;
  CrossRowPredictor single_pred;
  CrossRowPredictor double_pred;
  bool double_ok = false;

  World()
      : fleet(MakeFleet(topology)),
        classifier(topology, ml::LearnerKind::kRandomForest),
        single_pred(topology, ml::LearnerKind::kRandomForest),
        double_pred(topology, ml::LearnerKind::kRandomForest) {
    hbm::AddressCodec codec(topology);
    banks = fleet.log.GroupByBank(codec);
    analysis::PatternLabeler labeler(topology);
    std::vector<LabelledBank> labelled;
    std::vector<const trace::BankHistory*> singles, doubles;
    for (const trace::BankHistory& bank : banks) {
      if (!bank.HasUer()) continue;
      uer_banks.push_back(&bank);
      const hbm::FailureClass cls = labeler.LabelClass(bank);
      labelled.push_back(LabelledBank{&bank, cls});
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
      double_ok = false;  // too few double-cluster banks at this scale
    }
  }

  static trace::GeneratedFleet MakeFleet(const hbm::TopologyConfig& topology) {
    trace::CalibrationProfile profile;
    profile.scale = 0.08;
    return trace::FleetGenerator(topology, profile).Generate(5);
  }

  const CrossRowPredictor& effective_double() const {
    return double_ok ? double_pred : single_pred;
  }
  const CrossRowPredictor* double_or_null() const {
    return double_ok ? &double_pred : nullptr;
  }
};

const World& SharedWorld() {
  static const World* world = new World();
  return *world;
}

TEST(PredictionEngine, StreamingMatchesIcrReplay) {
  const World& w = SharedWorld();
  PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                          w.double_or_null());
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    engine.Observe(record);
  }

  const IcrEvaluator evaluator(w.topology);
  CordialStrategy strategy(w.classifier, w.single_pred, w.effective_double());
  const IcrResult icr = evaluator.Evaluate(w.uer_banks, strategy);

  ASSERT_GT(icr.total_uer_rows, 0u);
  EXPECT_EQ(engine.stats().uer_rows_total, icr.total_uer_rows);
  EXPECT_EQ(engine.stats().uer_rows_covered, icr.covered_rows);
  EXPECT_EQ(engine.stats().uer_rows_covered_by_bank,
            icr.covered_by_bank_spare);
  EXPECT_EQ(engine.ledger().rows_spared(), icr.rows_spared);
  EXPECT_EQ(engine.ledger().banks_spared(), icr.banks_spared);
  EXPECT_DOUBLE_EQ(engine.ledger().total_cost(), icr.sparing_cost);
  EXPECT_EQ(engine.stats().rows_isolated, icr.rows_spared);
  EXPECT_DOUBLE_EQ(engine.stats().Icr(), icr.Icr());
  EXPECT_DOUBLE_EQ(engine.stats().IcrWithBankSparing(),
                   icr.IcrWithBankSparing());
  EXPECT_EQ(engine.stats().events, w.fleet.log.size());
}

trace::MceRecord Make(double t, std::uint32_t bank, std::uint32_t row,
                      hbm::ErrorType type) {
  trace::MceRecord r;
  r.time_s = t;
  r.address.bank = bank;
  r.address.row = row;
  r.type = type;
  return r;
}

std::string StateBytes(const PredictionEngine& engine) {
  std::string bytes;
  engine.AppendState(bytes);
  return bytes;
}

TEST(PredictionEngine, AccumulatesPerBankState) {
  // The bank map is the engine's only per-bank store: each record lands in
  // its bank's one profile.
  const World& w = SharedWorld();
  PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                          w.double_or_null());
  engine.Observe(Make(1.0, 0, 10, hbm::ErrorType::kCe));
  engine.Observe(Make(2.0, 1, 20, hbm::ErrorType::kUer));
  engine.Observe(Make(3.0, 0, 11, hbm::ErrorType::kUer));
  const BankProfile* bank0 = engine.FindProfile(
      engine.codec().BankKey(Make(0.0, 0, 0, hbm::ErrorType::kCe).address));
  ASSERT_NE(bank0, nullptr);
  EXPECT_EQ(bank0->event_count(), 2u);
  EXPECT_EQ(bank0->ce_rows(), std::vector<std::uint32_t>{10});
  EXPECT_EQ(bank0->uer().uer_rows, std::vector<std::uint32_t>{11});
  EXPECT_DOUBLE_EQ(bank0->last_time_s(), 3.0);
  EXPECT_EQ(engine.bank_count(), 2u);
  EXPECT_EQ(engine.stats().events, 3u);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);

  // At fleet scale every bank has exactly one profile that absorbed all of
  // its records.
  PredictionEngine fleet(w.topology, w.classifier, w.single_pred,
                         w.double_or_null());
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    fleet.Observe(record);
  }
  ASSERT_EQ(fleet.bank_count(), w.banks.size());
  for (const trace::BankHistory& bank : w.banks) {
    const BankProfile* profile = fleet.FindProfile(bank.bank_key);
    ASSERT_NE(profile, nullptr) << bank.bank_key;
    EXPECT_EQ(profile->event_count(), bank.events.size());
    EXPECT_EQ(profile->last_time_s(), bank.events.back().time_s);
  }
}

TEST(PredictionEngine, FindProfileLocatesBanks) {
  const World& w = SharedWorld();
  PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                          w.double_or_null());
  EXPECT_EQ(engine.FindProfile(0), nullptr);
  const trace::MceRecord r = Make(1.0, 3, 10, hbm::ErrorType::kCe);
  engine.Observe(r);
  const std::uint64_t key = engine.codec().BankKey(r.address);
  const BankProfile* profile = engine.FindProfile(key);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->event_count(), 1u);
  EXPECT_EQ(engine.FindProfile(key + 1), nullptr);
  ASSERT_GT(key, 0u);
  EXPECT_EQ(engine.FindProfile(key - 1), nullptr);
}

TEST(PredictionEngine, BankSpareStatsCountLedgerSuccessesOnly) {
  const World& w = SharedWorld();
  // Scattered banks re-request a bank spare at every post-trigger UER; the
  // stat must count distinct retired banks, not requests.
  PredictionEngine with_sparing(w.topology, w.classifier, w.single_pred,
                                w.double_or_null());
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    with_sparing.Observe(record);
  }
  EXPECT_EQ(with_sparing.stats().banks_bank_spared,
            with_sparing.ledger().banks_spared());

  // With bank sparing unavailable every TrySpareBank fails — the stat must
  // stay at zero even though the policy still asks.
  EngineConfig no_bank_sparing;
  no_bank_sparing.budget.bank_sparing_available = false;
  PredictionEngine without(w.topology, w.classifier, w.single_pred,
                           w.double_or_null(), no_bank_sparing);
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    without.Observe(record);
  }
  EXPECT_GT(with_sparing.stats().banks_bank_spared, 0u);
  EXPECT_EQ(without.ledger().banks_spared(), 0u);
  EXPECT_EQ(without.stats().banks_bank_spared, 0u);
}

TEST(PredictionEngine, DropSkewPolicyCountsAndSkipsStaleRecords) {
  const World& w = SharedWorld();
  EngineConfig config;
  config.retention.skew_policy = trace::TimeSkewPolicy::kDrop;
  PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                          w.double_or_null(), config);
  trace::MceRecord r;
  r.time_s = 10.0;
  r.type = hbm::ErrorType::kCe;
  engine.Observe(r);
  r.time_s = 9.0;
  const IsolationActions actions = engine.Observe(r);
  EXPECT_EQ(actions, IsolationActions{});
  EXPECT_EQ(engine.stats().records_skew_dropped, 1u);
  // Accepted-event accounting is untouched by the drop, and so is the
  // clock.
  EXPECT_EQ(engine.stats().events, 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(PredictionEngine, RejectsTimeTravel) {
  const World& w = SharedWorld();
  PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                          w.double_or_null());
  trace::MceRecord r;
  r.time_s = 10.0;
  r.type = hbm::ErrorType::kCe;
  engine.Observe(r);
  r.time_s = 9.0;
  EXPECT_THROW(engine.Observe(r), ContractViolation);
}

TEST(PredictionEngine, DropSkewPolicyLeavesBankProfilesUntouched) {
  // A dropped record touches nothing but the drop counter: no profile is
  // created or fed, so the next in-order record lands as if it never came.
  const World& w = SharedWorld();
  EngineConfig config;
  config.retention.skew_policy = trace::TimeSkewPolicy::kDrop;
  PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                          w.double_or_null(), config);
  PredictionEngine reference(w.topology, w.classifier, w.single_pred,
                             w.double_or_null(), config);
  const trace::MceRecord first = Make(5.0, 0, 1, hbm::ErrorType::kCe);
  engine.Observe(first);
  reference.Observe(first);
  EXPECT_EQ(engine.Observe(Make(4.0, 0, 2, hbm::ErrorType::kCe)),
            IsolationActions{});
  const trace::MceRecord stale_new_bank = Make(4.0, 1, 2, hbm::ErrorType::kUer);
  EXPECT_EQ(engine.Observe(stale_new_bank), IsolationActions{});
  EXPECT_EQ(engine.stats().records_skew_dropped, 2u);
  EXPECT_EQ(engine.bank_count(), 1u);
  EXPECT_EQ(engine.FindProfile(engine.codec().BankKey(stale_new_bank.address)),
            nullptr);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);

  const trace::MceRecord next = Make(6.0, 0, 3, hbm::ErrorType::kCe);
  EXPECT_EQ(engine.Observe(next), reference.Observe(next));
  const BankProfile* bank0 =
      engine.FindProfile(engine.codec().BankKey(next.address));
  ASSERT_NE(bank0, nullptr);
  EXPECT_EQ(bank0->event_count(), 2u);
  EXPECT_EQ(bank0->ce_rows(), (std::vector<std::uint32_t>{1, 3}));
  EngineStats expected = reference.stats();
  expected.records_skew_dropped = 2;
  EXPECT_EQ(engine.stats(), expected);
}

TEST(PredictionEngine, ThrowSkewPolicyRejectsTimeTravelAcrossBanks) {
  // The skew clock is fleet-wide, not per bank: a record older than the
  // newest accepted one throws even on a bank that never reported, and
  // leaves the engine unchanged. An equal timestamp is in order.
  const World& w = SharedWorld();
  PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                          w.double_or_null());
  engine.Observe(Make(5.0, 0, 1, hbm::ErrorType::kCe));
  const std::string before = StateBytes(engine);
  EXPECT_THROW(engine.Observe(Make(4.0, 0, 2, hbm::ErrorType::kCe)),
               ContractViolation);
  const trace::MceRecord stale_new_bank = Make(4.0, 1, 2, hbm::ErrorType::kCe);
  EXPECT_THROW(engine.Observe(stale_new_bank), ContractViolation);
  EXPECT_EQ(StateBytes(engine), before);
  EXPECT_EQ(engine.FindProfile(engine.codec().BankKey(stale_new_bank.address)),
            nullptr);

  EXPECT_NO_THROW(engine.Observe(Make(5.0, 0, 3, hbm::ErrorType::kCe)));
  EXPECT_NO_THROW(engine.Observe(Make(5.0, 1, 3, hbm::ErrorType::kCe)));
  EXPECT_EQ(engine.bank_count(), 2u);
  EXPECT_EQ(engine.stats().events, 3u);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(PredictionEngine, SaveRestoreRoundTripsClockAndCountersExactly) {
  // A state stream carries the clock, the accepted-event and skew-drop
  // counters and every bank; restoring it and saving again gives the same
  // bytes.
  const World& w = SharedWorld();
  EngineConfig config;
  config.retention.skew_policy = trace::TimeSkewPolicy::kDrop;
  PredictionEngine original(w.topology, w.classifier, w.single_pred,
                            w.double_or_null(), config);
  const auto& records = w.fleet.log.records();
  std::size_t stale_fed = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i % 50 == 49) {
      trace::MceRecord stale = records[i];
      stale.time_s = std::nextafter(original.now(), 0.0);
      original.Observe(stale);
      ++stale_fed;
    }
    original.Observe(records[i]);
  }
  ASSERT_GT(stale_fed, 0u);
  ASSERT_EQ(original.stats().records_skew_dropped, stale_fed);
  const std::string saved = StateBytes(original);

  PredictionEngine restored(w.topology, w.classifier, w.single_pred,
                            w.double_or_null(), config);
  std::string_view in(saved);
  restored.CommitState(restored.ParseState(in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(restored.bank_count(), original.bank_count());
  EXPECT_EQ(restored.stats().events, records.size());
  EXPECT_EQ(restored.stats().records_skew_dropped, stale_fed);
  EXPECT_EQ(restored.stats(), original.stats());
  EXPECT_DOUBLE_EQ(restored.now(), original.now());
  EXPECT_EQ(StateBytes(restored), saved);
}

TEST(PredictionEngine, SkewClockSurvivesFullAndDeltaRestore) {
  // The skew gate's clock is checkpointed: an engine restored from a full,
  // or from a full plus a delta, must judge a record older than the donor's
  // newest exactly as the uninterrupted engine does.
  const World& w = SharedWorld();
  const auto& records = w.fleet.log.records();
  const std::size_t full_at = records.size() / 3;
  const std::size_t delta_at = 2 * records.size() / 3;
  ASSERT_GT(full_at, 0u);
  ASSERT_LT(records[full_at - 1].time_s, records[delta_at - 1].time_s);

  for (const trace::TimeSkewPolicy policy :
       {trace::TimeSkewPolicy::kDrop, trace::TimeSkewPolicy::kThrow}) {
    EngineConfig config;
    config.retention.skew_policy = policy;
    const auto make_engine = [&] {
      return std::make_unique<PredictionEngine>(w.topology, w.classifier,
                                                w.single_pred,
                                                w.double_or_null(), config);
    };
    auto donor = make_engine();
    for (std::size_t i = 0; i < full_at; ++i) donor->Observe(records[i]);
    const std::string full = StateBytes(*donor);
    donor->MarkCheckpointClean();
    for (std::size_t i = full_at; i < delta_at; ++i) donor->Observe(records[i]);
    std::string delta;
    donor->AppendDeltaState(delta);

    for (const bool with_delta : {false, true}) {
      SCOPED_TRACE(std::string(policy == trace::TimeSkewPolicy::kDrop
                                   ? "drop"
                                   : "throw") +
                   (with_delta ? ", full + delta" : ", full"));
      const std::size_t at = with_delta ? delta_at : full_at;
      auto uninterrupted = make_engine();
      for (std::size_t i = 0; i < at; ++i) uninterrupted->Observe(records[i]);

      auto restored = make_engine();
      std::string_view full_in(full);
      restored->CommitState(restored->ParseState(full_in));
      if (with_delta) {
        std::string_view delta_in(delta);
        restored->CommitDeltaState(restored->ParseDeltaState(delta_in));
      }
      ASSERT_GT(uninterrupted->now(), 0.0);
      ASSERT_EQ(restored->now(), uninterrupted->now());

      // Just older than the newest record: a clock that was not restored
      // (or restored to anything earlier) would accept it.
      trace::MceRecord stale = records[at - 1];
      stale.time_s = std::nextafter(uninterrupted->now(), 0.0);
      if (policy == trace::TimeSkewPolicy::kDrop) {
        EXPECT_EQ(restored->Observe(stale), IsolationActions{});
        EXPECT_EQ(uninterrupted->Observe(stale), IsolationActions{});
        EXPECT_EQ(restored->stats().records_skew_dropped, 1u);
      } else {
        EXPECT_THROW(restored->Observe(stale), ContractViolation);
        EXPECT_THROW(uninterrupted->Observe(stale), ContractViolation);
      }
      EXPECT_EQ(restored->stats(), uninterrupted->stats());

      // An equal timestamp is accepted, and the two stay byte-identical.
      trace::MceRecord equal = records[at];
      equal.time_s = uninterrupted->now();
      EXPECT_EQ(restored->Observe(equal), uninterrupted->Observe(equal));
      EXPECT_EQ(restored->stats().events, at + 1);
      EXPECT_EQ(StateBytes(*restored), StateBytes(*uninterrupted));
    }
  }
}

TEST(PredictionEngine, RequiresTrainedModels) {
  const World& w = SharedWorld();
  PatternClassifier raw(w.topology, ml::LearnerKind::kRandomForest);
  EXPECT_THROW(PredictionEngine(w.topology, raw, w.single_pred),
               ContractViolation);
}

TEST(PredictionEngine, RejectsTriggerBeforeTruncation) {
  const World& w = SharedWorld();
  // A trigger below the classification truncation depth would let the
  // truncated view keep growing after the decision point (lookahead).
  CrossRowConfig early_config;
  early_config.trigger_uers = 2;
  CrossRowPredictor early(w.topology, ml::LearnerKind::kRandomForest,
                          early_config);
  std::stringstream model;
  w.single_pred.SaveModel(model);
  early.LoadModel(model);
  EXPECT_THROW(PredictionEngine(w.topology, w.classifier, early),
               ContractViolation);
  EXPECT_THROW(CordialStrategy(w.classifier, early, early),
               ContractViolation);
}

}  // namespace
}  // namespace cordial::core
