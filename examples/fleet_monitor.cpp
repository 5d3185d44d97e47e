// Fleet monitor: an online deployment scenario for Cordial.
//
// A core::PredictionEngine consumes the fleet's MCE stream in time order.
// Models are trained on a historical window (the banks whose first UER falls
// in the first 60% of the observation window); the remainder is replayed
// live: at each bank's 3rd UER the engine classifies the failure pattern,
// then re-issues cross-row block predictions at every further UER and
// isolates the predicted rows. At the end it reports how many of the
// subsequent row failures had been preemptively isolated.
//
// This is the same decision path the offline ICR evaluation replays
// (core::StepCordial), driven by bounded-memory streaming state instead of
// full event histories.
//
// Usage: fleet_monitor [scale] [seed]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <set>

#include "analysis/labeler.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "hbm/address.hpp"
#include "trace/fleet.hpp"

using namespace cordial;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  hbm::TopologyConfig topology;
  trace::CalibrationProfile profile;
  profile.scale = scale;
  trace::FleetGenerator generator(topology, profile);
  const trace::GeneratedFleet fleet = generator.Generate(seed);
  hbm::AddressCodec codec(topology);
  const auto banks = fleet.log.GroupByBank(codec);
  std::cout << "fleet: " << fleet.log.size() << " MCE records\n";

  // Historical banks (first UER in the first 60% of the window) train the
  // models; the rest replay live.
  const double horizon = 0.6 * 120.0 * 86400.0;
  analysis::PatternLabeler labeler(topology);
  std::vector<core::LabelledBank> train_banks;
  std::set<std::uint64_t> train_keys;
  for (const auto& bank : banks) {
    if (!bank.HasUer() || bank.FirstUerTime() >= horizon) continue;
    train_banks.push_back(core::LabelledBank{&bank, labeler.LabelClass(bank)});
    train_keys.insert(bank.bank_key);
  }
  std::cout << "training on " << train_banks.size() << " historical banks\n";

  Rng rng(seed + 1);
  core::PatternClassifier classifier(topology,
                                     ml::LearnerKind::kRandomForest);
  classifier.Train(train_banks, rng);

  std::vector<const trace::BankHistory*> single_train, double_train;
  for (const auto& lb : train_banks) {
    if (lb.label == hbm::FailureClass::kSingleRowClustering) {
      single_train.push_back(lb.bank);
    } else if (lb.label == hbm::FailureClass::kDoubleRowClustering) {
      double_train.push_back(lb.bank);
    }
  }
  core::CrossRowPredictor single_predictor(topology,
                                           ml::LearnerKind::kRandomForest);
  core::CrossRowPredictor double_predictor(topology,
                                           ml::LearnerKind::kRandomForest);
  single_predictor.Train(single_train, rng);
  const bool double_ok = !double_train.empty();
  if (double_ok) double_predictor.Train(double_train, rng);

  core::PredictionEngine engine(topology, classifier, single_predictor,
                                double_ok ? &double_predictor : nullptr);

  std::cout << "\nreplaying the live stream (sample of daemon decisions):\n";
  std::size_t verbose_budget = 12;
  for (const trace::MceRecord& record : fleet.log.records()) {
    const std::uint64_t key = engine.codec().BankKey(record.address);
    if (train_keys.contains(key)) continue;  // history, already learned from
    const core::IsolationActions actions = engine.Observe(record);
    if (verbose_budget == 0) continue;
    bool printed = false;
    if (actions.first_failure && actions.covered()) {
      std::cout << "  [t=" << std::fixed << std::setprecision(0)
                << record.time_s / 3600.0 << "h] PREVENTED: row "
                << record.address.row << " of bank " << key
                << " failed while isolated\n";
      printed = true;
    }
    if (actions.classified_now) {
      std::cout << "  [t=" << std::fixed << std::setprecision(0)
                << record.time_s / 3600.0 << "h] bank " << key
                << " classified as "
                << hbm::FailureClassName(actions.bank_class) << "\n";
      printed = true;
    }
    if (printed) --verbose_budget;
  }

  const core::EngineStats& s = engine.stats();
  TextTable summary({"Metric", "Value"});
  summary.AddRow({"events ingested", std::to_string(s.events)});
  // Shed records: silence here would hide a lossy session. The monitor has
  // no shard queues, so its only shedding surface is the engine's skew
  // gate, which discards (and counts) stale records.
  summary.AddRow({"stale records dropped (skew)",
                  std::to_string(s.records_skew_dropped)});
  summary.AddRow({"banks classified", std::to_string(s.banks_classified)});
  summary.AddRow({"banks bank-spared (scattered)",
                  std::to_string(s.banks_bank_spared)});
  summary.AddRow({"block predictions issued",
                  std::to_string(s.predictions_issued)});
  summary.AddRow({"rows isolated", std::to_string(s.rows_isolated)});
  summary.AddRow({"UER rows observed", std::to_string(s.uer_rows_total)});
  const std::size_t covered = s.uer_rows_covered + s.uer_rows_covered_by_bank;
  summary.AddRow({"UER rows preemptively isolated", std::to_string(covered)});
  summary.AddRow(
      {"live isolation coverage",
       TextTable::FormatPercent(
           s.uer_rows_total == 0
               ? 0.0
               : static_cast<double>(covered) /
                     static_cast<double>(s.uer_rows_total))});
  std::cout << "\n" << summary.Render("Monitoring session summary");
  return 0;
}
