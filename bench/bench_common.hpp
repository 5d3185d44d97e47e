// Shared helpers for the benches. The reproduction benches regenerate the
// default calibrated fleet (paper-sized at scale 1.0) and print their tables
// through TextTable with the paper's reference values alongside; the perf
// gates share one BenchWorld.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/crossrow.hpp"
#include "core/pattern_classifier.hpp"
#include "hbm/address.hpp"
#include "trace/fleet.hpp"

namespace cordial::bench {

struct BenchArgs {
  double scale = 1.0;
  std::uint64_t seed = 42;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    if (argc > 1) args.scale = std::atof(argv[1]);
    if (argc > 2) args.seed = std::strtoull(argv[2], nullptr, 10);
    return args;
  }
};

inline trace::GeneratedFleet MakeFleet(const BenchArgs& args) {
  hbm::TopologyConfig topology;
  trace::CalibrationProfile profile;
  profile.scale = args.scale;
  trace::FleetGenerator generator(topology, profile);
  std::cerr << "generating fleet (scale=" << args.scale
            << ", seed=" << args.seed << ")...\n";
  return generator.Generate(args.seed);
}

inline void PrintHeader(const std::string& what, const BenchArgs& args,
                        const trace::GeneratedFleet& fleet) {
  std::cout << "== " << what << " ==\n"
            << "synthetic fleet: " << fleet.topology.TotalNpus() << " NPUs, "
            << fleet.topology.TotalHbms() << " HBMs; " << fleet.log.size()
            << " MCE records across " << fleet.banks.size()
            << " faulty banks (scale " << args.scale << ", seed " << args.seed
            << ")\n\n";
}

/// A UER bank padded with CE background to `target_events` records, to
/// deployment-like event densities: each padding CE copies a random event
/// of the bank, at a uniform time within its horizon and a row jittered by
/// up to 64.
inline trace::BankHistory Densify(const trace::BankHistory& bank,
                                  std::size_t target_events,
                                  std::uint32_t rows, Rng& rng) {
  trace::BankHistory dense = bank;
  const double horizon = bank.events.back().time_s;
  while (dense.events.size() < target_events) {
    trace::MceRecord ce = bank.events[rng.UniformU64(bank.events.size())];
    ce.type = hbm::ErrorType::kCe;
    ce.time_s = rng.UniformReal(0.0, horizon);
    const std::int64_t jittered =
        static_cast<std::int64_t>(ce.address.row) + rng.UniformInt(-64, 64);
    ce.address.row = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(jittered, 0, rows - 1));
    dense.events.push_back(ce);
  }
  std::stable_sort(dense.events.begin(), dense.events.end(),
                   [](const trace::MceRecord& a, const trace::MceRecord& b) {
                     return a.time_s < b.time_s;
                   });
  return dense;
}

/// The perf gates' shared world: the scale-0.08 fleet at seed 123, its UER
/// banks densified to 1,000 records each (seed 31) and merged into one
/// time-sorted stream, and random-forest models trained on its UER banks
/// (seed 7).
struct BenchWorld {
  hbm::TopologyConfig topology;
  trace::GeneratedFleet fleet;
  std::vector<trace::MceRecord> stream;
  core::PatternClassifier classifier;
  core::CrossRowPredictor single_pred;
  core::CrossRowPredictor double_pred;
  bool double_ok = false;

  BenchWorld()
      : fleet([] {
          hbm::TopologyConfig topology;
          trace::CalibrationProfile profile;
          profile.scale = 0.08;
          return trace::FleetGenerator(topology, profile).Generate(123);
        }()),
        classifier(topology, ml::LearnerKind::kRandomForest),
        single_pred(topology, ml::LearnerKind::kRandomForest),
        double_pred(topology, ml::LearnerKind::kRandomForest) {
    hbm::AddressCodec codec(topology);
    const auto banks = fleet.log.GroupByBank(codec);
    analysis::PatternLabeler labeler(topology);
    std::vector<core::LabelledBank> labelled;
    std::vector<const trace::BankHistory*> singles, doubles;
    std::vector<trace::BankHistory> dense_banks;
    Rng dense_rng(31);
    for (const trace::BankHistory& bank : banks) {
      if (!bank.HasUer()) continue;
      dense_banks.push_back(
          Densify(bank, 1000, topology.rows_per_bank, dense_rng));
      const hbm::FailureClass cls = labeler.LabelClass(bank);
      labelled.push_back(core::LabelledBank{&bank, cls});
      if (cls == hbm::FailureClass::kSingleRowClustering) {
        singles.push_back(&bank);
      } else if (cls == hbm::FailureClass::kDoubleRowClustering) {
        doubles.push_back(&bank);
      }
    }
    for (const trace::BankHistory& bank : dense_banks) {
      stream.insert(stream.end(), bank.events.begin(), bank.events.end());
    }
    std::stable_sort(stream.begin(), stream.end(),
                     [](const trace::MceRecord& a, const trace::MceRecord& b) {
                       return a.time_s < b.time_s;
                     });
    Rng rng(7);
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
};

}  // namespace cordial::bench
