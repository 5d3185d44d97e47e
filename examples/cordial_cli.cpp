// cordial_cli — operational command-line front end.
//
//   cordial_cli generate <log.csv> [scale] [seed]
//       synthesize a fleet MCE log and write it as CSV
//   cordial_cli study <log.csv>
//       run the empirical studies (Tables I/II, Fig 3b, Fig 4) on a log
//   cordial_cli train <log.csv> <model_prefix> [seed]
//       train the pattern classifier and both cross-row predictors; writes
//       <prefix>.pattern.model, <prefix>.single.model, <prefix>.double.model
//   cordial_cli predict <log.csv> <model_prefix>
//       stream the log through trained models and print isolation advisories
//   cordial_cli evaluate <log.csv> [seed]
//       70:30 train/test evaluation on the log (Table III/IV style summary)
//
// Logs use the LogCodec CSV schema; models are the ml-library text format.
#include <fstream>
#include <iostream>
#include <set>
#include <string>

#include "analysis/empirical.hpp"
#include "analysis/locality.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "hbm/address.hpp"
#include "trace/fleet.hpp"
#include "trace/log_codec.hpp"

using namespace cordial;

namespace {

int Usage() {
  std::cerr << "usage:\n"
               "  cordial_cli generate <log.csv> [scale] [seed]\n"
               "  cordial_cli study <log.csv>\n"
               "  cordial_cli train <log.csv> <model_prefix> [seed]\n"
               "  cordial_cli predict <log.csv> <model_prefix>\n"
               "  cordial_cli evaluate <log.csv> [seed]\n";
  return 2;
}

trace::ErrorLog LoadLog(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open log file: " + path);
  trace::ErrorLog log = trace::LogCodec::ReadCsv(in);
  log.Sort();
  return log;
}

int CmdGenerate(const std::string& path, double scale, std::uint64_t seed) {
  hbm::TopologyConfig topology;
  trace::CalibrationProfile profile;
  profile.scale = scale;
  trace::FleetGenerator generator(topology, profile);
  const trace::GeneratedFleet fleet = generator.Generate(seed);
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  trace::LogCodec::WriteCsv(fleet.log, out);
  std::cout << "wrote " << fleet.log.size() << " MCE records ("
            << fleet.CountUerBanks() << " UER banks) to " << path << "\n";
  return 0;
}

int CmdStudy(const std::string& path) {
  const trace::ErrorLog log = LoadLog(path);
  hbm::TopologyConfig topology;
  hbm::AddressCodec codec(topology);
  std::cout << "loaded " << log.size() << " records\n\n";

  const auto sudden = analysis::ComputeSuddenUerStudy(log, codec);
  TextTable t1({"Micro-level", "Sudden", "Non-sudden", "Predictable"});
  for (const auto& row : sudden) {
    t1.AddRow({hbm::LevelName(row.level), std::to_string(row.sudden),
               std::to_string(row.non_sudden),
               TextTable::FormatPercent(row.PredictableRatio())});
  }
  std::cout << t1.Render("Sudden vs non-sudden UERs (Table I)") << "\n";

  const auto summary = analysis::ComputeDatasetSummary(log, codec);
  TextTable t2({"Micro-level", "With CE", "With UEO", "With UER", "Total"});
  for (const auto& row : summary) {
    t2.AddRow({hbm::LevelName(row.level), std::to_string(row.with_ce),
               std::to_string(row.with_ueo), std::to_string(row.with_uer),
               std::to_string(row.total)});
  }
  std::cout << t2.Render("Dataset summary (Table II)") << "\n";

  const auto banks = log.GroupByBank(codec);
  analysis::PatternLabeler labeler(topology);
  const auto dist = analysis::ComputePatternDistribution(banks, labeler);
  TextTable t3({"Pattern", "Share"});
  for (const auto& [shape, count] : dist.counts) {
    t3.AddRow({hbm::PatternShapeName(shape),
               TextTable::FormatPercent(dist.Fraction(shape))});
  }
  std::cout << t3.Render("Failure pattern distribution (Fig 3b), " +
                         std::to_string(dist.total_uer_banks) + " UER banks")
            << "\n";

  const auto sweep = analysis::ComputeLocalitySweep(
      banks, topology, analysis::DefaultLocalityThresholds());
  std::cout << "cross-row locality chi-square peak: "
            << analysis::PeakThreshold(sweep) << " rows (Fig 4)\n";
  return 0;
}

struct TrainedModels {
  core::PatternClassifier classifier;
  core::CrossRowPredictor single_predictor;
  core::CrossRowPredictor double_predictor;
};

int CmdTrain(const std::string& log_path, const std::string& prefix,
             std::uint64_t seed) {
  const trace::ErrorLog log = LoadLog(log_path);
  hbm::TopologyConfig topology;
  hbm::AddressCodec codec(topology);
  const auto banks = log.GroupByBank(codec);
  analysis::PatternLabeler labeler(topology);

  std::vector<core::LabelledBank> labelled;
  std::vector<const trace::BankHistory*> singles, doubles;
  for (const auto& bank : banks) {
    if (!bank.HasUer()) continue;
    const hbm::FailureClass cls = labeler.LabelClass(bank);
    labelled.push_back(core::LabelledBank{&bank, cls});
    if (cls == hbm::FailureClass::kSingleRowClustering) {
      singles.push_back(&bank);
    } else if (cls == hbm::FailureClass::kDoubleRowClustering) {
      doubles.push_back(&bank);
    }
  }
  std::cout << "training on " << labelled.size() << " UER banks ("
            << singles.size() << " single, " << doubles.size()
            << " double)\n";

  Rng rng(seed);
  core::PatternClassifier classifier(topology,
                                     ml::LearnerKind::kRandomForest);
  classifier.Train(labelled, rng);
  core::CrossRowPredictor single_predictor(topology,
                                           ml::LearnerKind::kRandomForest);
  single_predictor.Train(singles, rng);
  core::CrossRowPredictor double_predictor(topology,
                                           ml::LearnerKind::kRandomForest);
  const bool double_ok = !doubles.empty();
  if (double_ok) {
    double_predictor.Train(doubles, rng);
  }

  auto save = [&](const std::string& path, auto&& saver) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw ParseError("cannot write " + path);
    saver(out);
    std::cout << "  wrote " << path << "\n";
  };
  save(prefix + ".pattern.model",
       [&](std::ostream& out) { classifier.SaveModel(out); });
  save(prefix + ".single.model",
       [&](std::ostream& out) { single_predictor.SaveModel(out); });
  save(prefix + ".double.model", [&](std::ostream& out) {
    (double_ok ? double_predictor : single_predictor).SaveModel(out);
  });
  return 0;
}

int CmdPredict(const std::string& log_path, const std::string& prefix) {
  hbm::TopologyConfig topology;
  core::PatternClassifier classifier(topology,
                                     ml::LearnerKind::kRandomForest);
  core::CrossRowPredictor single_predictor(topology,
                                           ml::LearnerKind::kRandomForest);
  core::CrossRowPredictor double_predictor(topology,
                                           ml::LearnerKind::kRandomForest);
  auto load = [&](const std::string& path, auto&& loader) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ParseError("cannot open model " + path);
    loader(in);
  };
  load(prefix + ".pattern.model",
       [&](std::istream& in) { classifier.LoadModel(in); });
  load(prefix + ".single.model",
       [&](std::istream& in) { single_predictor.LoadModel(in); });
  load(prefix + ".double.model",
       [&](std::istream& in) { double_predictor.LoadModel(in); });

  const trace::ErrorLog log = LoadLog(log_path);

  // One PredictionEngine drives the whole advisory stream: the same anchor
  // semantics (same-row skip, per-bank anchor cap) the offline evaluation
  // replays, from per-bank profiles alone (no raw records are retained).
  core::PredictionEngine engine(topology, classifier, single_predictor,
                                &double_predictor);
  std::size_t advisories = 0, bank_spares = 0;

  for (const trace::MceRecord& record : log.records()) {
    const std::uint64_t key = engine.codec().BankKey(record.address);
    const core::IsolationActions actions = engine.Observe(record);
    if (actions.bank_spare) {
      ++bank_spares;
      std::cout << "ADVISE bank-spare: bank " << key << " ("
                << hbm::FailureClassName(actions.bank_class) << ")\n";
    }
    for (const core::RowSpan& span : actions.predicted_spans) {
      ++advisories;
      if (advisories <= 20) {
        std::cout << "ADVISE row-spare: bank " << key << " rows ["
                  << span.first << ", " << span.last << "]\n";
      }
    }
  }
  if (advisories > 20) {
    std::cout << "... (" << advisories - 20 << " more row advisories)\n";
  }
  std::cout << "\ntotal: " << advisories << " row-block advisories, "
            << bank_spares << " bank-spare advisories over "
            << engine.bank_count() << " banks\n";
  return 0;
}

int CmdEvaluate(const std::string& log_path, std::uint64_t seed) {
  const trace::ErrorLog log = LoadLog(log_path);
  hbm::TopologyConfig topology;
  hbm::AddressCodec codec(topology);
  core::PipelineConfig config;
  core::CordialPipeline pipeline(topology, config);
  const auto result = pipeline.RunOnBanks(log.GroupByBank(codec), seed);

  const auto weighted = result.pattern_confusion.WeightedAverage();
  std::cout << "pattern classification weighted F1: "
            << TextTable::FormatDouble(weighted.f1) << " over "
            << result.test_banks << " test banks\n\n";
  TextTable table({"Method", "Precision", "Recall", "F1", "ICR"});
  for (const auto* eval : {&result.neighbor_baseline, &result.cordial}) {
    table.AddRow({eval->method,
                  TextTable::FormatDouble(eval->block_metrics.precision),
                  TextTable::FormatDouble(eval->block_metrics.recall),
                  TextTable::FormatDouble(eval->block_metrics.f1),
                  TextTable::FormatPercent(eval->icr.Icr())});
  }
  std::cout << table.Render("Prediction quality (Table IV style)");
  std::cout << "in-row ICR ceiling: "
            << TextTable::FormatPercent(result.in_row_icr.Icr()) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    if (command == "generate" && argc >= 3) {
      return CmdGenerate(argv[2], argc > 3 ? std::atof(argv[3]) : 0.25,
                         argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 42);
    }
    if (command == "study" && argc >= 3) return CmdStudy(argv[2]);
    if (command == "train" && argc >= 4) {
      return CmdTrain(argv[2], argv[3],
                      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 42);
    }
    if (command == "predict" && argc >= 4) return CmdPredict(argv[2], argv[3]);
    if (command == "evaluate" && argc >= 3) {
      return CmdEvaluate(argv[2],
                         argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
