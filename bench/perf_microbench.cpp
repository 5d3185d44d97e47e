// Engineering micro-benchmarks (google-benchmark): throughput of the hot
// paths — RNG, ECC codec, address packing, log grouping, feature
// extraction, frame checksums, model load and inference, and fleet
// generation. Not a paper table; validates that the library is fast
// enough for fleet-scale use.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/framing.hpp"
#include "common/parallel.hpp"
#include "core/bank_profile.hpp"
#include "core/crossrow.hpp"
#include "core/features.hpp"
#include "core/pattern_classifier.hpp"
#include "hbm/address.hpp"
#include "hbm/ecc.hpp"
#include "ml/classifier.hpp"
#include "trace/fleet.hpp"

namespace {

using namespace cordial;

const trace::GeneratedFleet& SharedFleet() {
  static const trace::GeneratedFleet fleet = [] {
    hbm::TopologyConfig topology;
    trace::CalibrationProfile profile;
    profile.scale = 0.1;
    trace::FleetGenerator generator(topology, profile);
    return generator.Generate(123);
  }();
  return fleet;
}

const std::vector<trace::BankHistory>& SharedBanks() {
  static const std::vector<trace::BankHistory> banks = [] {
    hbm::AddressCodec codec(SharedFleet().topology);
    return SharedFleet().log.GroupByBank(codec);
  }();
  return banks;
}

const trace::BankHistory& FirstUerBank() {
  for (const auto& bank : SharedBanks()) {
    std::size_t uers = 0;
    for (const auto& e : bank.events) {
      uers += e.type == hbm::ErrorType::kUer;
    }
    if (uers >= 3) return bank;
  }
  throw std::runtime_error("no UER bank in shared fleet");
}

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngPoisson(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Poisson(4.0));
  }
}
BENCHMARK(BM_RngPoisson);

void BM_SecDedEncode(benchmark::State& state) {
  std::uint64_t data = 0x0123456789abcdefULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbm::SecDedCodec::Encode(data));
    ++data;
  }
}
BENCHMARK(BM_SecDedEncode);

void BM_SecDedDecodeCorrupted(benchmark::State& state) {
  const auto word = hbm::SecDedCodec::Encode(0xdeadbeefULL);
  int bit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbm::SecDedCodec::Decode(hbm::SecDedCodec::FlipBit(word, bit)));
    bit = (bit + 1) % 72;
  }
}
BENCHMARK(BM_SecDedDecodeCorrupted);

void BM_AddressPackUnpack(benchmark::State& state) {
  const hbm::TopologyConfig topology;
  const hbm::AddressCodec codec(topology);
  hbm::DeviceAddress a;
  a.node = 7;
  a.row = 12345;
  for (auto _ : state) {
    const std::uint64_t key = codec.Pack(a);
    benchmark::DoNotOptimize(codec.Unpack(key));
    a.row = (a.row + 1) % topology.rows_per_bank;
  }
}
BENCHMARK(BM_AddressPackUnpack);

void BM_GroupByBank(benchmark::State& state) {
  hbm::AddressCodec codec(SharedFleet().topology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SharedFleet().log.GroupByBank(codec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(SharedFleet().log.size()));
}
BENCHMARK(BM_GroupByBank);

void BM_ClassificationFeatures(benchmark::State& state) {
  const core::ClassificationFeatureExtractor extractor(SharedFleet().topology);
  const trace::BankHistory& bank = FirstUerBank();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(bank));
  }
}
BENCHMARK(BM_ClassificationFeatures);

void BM_CrossRowFeatures(benchmark::State& state) {
  const core::CrossRowFeatureExtractor extractor(SharedFleet().topology);
  const trace::BankHistory& bank = FirstUerBank();
  double anchor_t = 0.0;
  std::uint32_t anchor_row = 0;
  for (const auto& e : bank.events) {
    if (e.type == hbm::ErrorType::kUer) {
      anchor_t = e.time_s;
      anchor_row = e.address.row;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(bank, anchor_t, anchor_row, 8));
  }
}
BENCHMARK(BM_CrossRowFeatures);

void BM_RuleLabeler(benchmark::State& state) {
  const analysis::PatternLabeler labeler(SharedFleet().topology);
  const trace::BankHistory& bank = FirstUerBank();
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeler.LabelShape(bank));
  }
}
BENCHMARK(BM_RuleLabeler);

void BM_ForestPredict(benchmark::State& state) {
  static const auto setup = [] {
    analysis::PatternLabeler labeler(SharedFleet().topology);
    std::vector<core::LabelledBank> labelled;
    for (const auto& bank : SharedBanks()) {
      if (!bank.HasUer()) continue;
      labelled.push_back(core::LabelledBank{&bank, labeler.LabelClass(bank)});
    }
    auto classifier = std::make_shared<core::PatternClassifier>(
        SharedFleet().topology, ml::LearnerKind::kRandomForest);
    Rng rng(3);
    classifier->Train(labelled, rng);
    return classifier;
  }();
  const trace::BankHistory& bank = FirstUerBank();
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup->Classify(bank));
  }
}
BENCHMARK(BM_ForestPredict);

/// The frame checksum at the sizes it runs on: one 49-byte record, one
/// 256-record wire payload, the mean paper-replay delta member and the
/// seed-42 single-row model payload.
void BM_Crc32(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::string data(bytes, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next() & 0xFFu);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->Arg(49)->Arg(12544)->Arg(821236)->Arg(2948138);

/// The three RF models the engine serves, trained on the shared fleet, and
/// their SaveModel bytes.
struct ServedModels {
  core::PatternClassifier classifier;
  core::CrossRowPredictor single;
  core::CrossRowPredictor double_row;
  std::string saved[3];

  explicit ServedModels(const hbm::TopologyConfig& topology)
      : classifier(topology, ml::LearnerKind::kRandomForest),
        single(topology, ml::LearnerKind::kRandomForest),
        double_row(topology, ml::LearnerKind::kRandomForest) {}
};

const ServedModels& SharedServedModels() {
  static const ServedModels* models = [] {
    const hbm::TopologyConfig& topology = SharedFleet().topology;
    analysis::PatternLabeler labeler(topology);
    std::vector<core::LabelledBank> labelled;
    std::vector<const trace::BankHistory*> singles, doubles;
    for (const auto& bank : SharedBanks()) {
      if (!bank.HasUer()) continue;
      const hbm::FailureClass cls = labeler.LabelClass(bank);
      labelled.push_back(core::LabelledBank{&bank, cls});
      if (cls == hbm::FailureClass::kSingleRowClustering) {
        singles.push_back(&bank);
      } else if (cls == hbm::FailureClass::kDoubleRowClustering) {
        doubles.push_back(&bank);
      }
    }
    auto* trained = new ServedModels(topology);
    Rng rng(3);
    trained->classifier.Train(labelled, rng);
    trained->single.Train(singles, rng);
    trained->double_row.Train(doubles, rng);
    const auto save = [](const auto& model) {
      std::ostringstream out;
      model.SaveModel(out);
      return out.str();
    };
    trained->saved[0] = save(trained->classifier);
    trained->saved[1] = save(trained->single);
    trained->saved[2] = save(trained->double_row);
    return trained;
  }();
  return *models;
}

/// A daemon boot's model load: the three RF models from their saved bytes,
/// teardown included. The trees decode on the pool: at one thread (the
/// node loop's serial cost) and at the pool's default size (argument 0).
void BM_LoadModel(benchmark::State& state) {
  const ServedModels& models = SharedServedModels();
  const hbm::TopologyConfig& topology = SharedFleet().topology;
  SetThreadCount(static_cast<std::size_t>(state.range(0)));
  state.SetLabel(std::to_string(ThreadCount()) + " thread(s)");
  for (auto _ : state) {
    const ml::LearnerKind rf = ml::LearnerKind::kRandomForest;
    core::PatternClassifier classifier(topology, rf);
    core::CrossRowPredictor single(topology, rf);
    core::CrossRowPredictor double_row(topology, rf);
    std::istringstream pattern_in(models.saved[0]);
    std::istringstream single_in(models.saved[1]);
    std::istringstream double_in(models.saved[2]);
    classifier.LoadModel(pattern_in);
    single.LoadModel(single_in);
    double_row.LoadModel(double_in);
    benchmark::DoNotOptimize(classifier);
    benchmark::DoNotOptimize(single);
    benchmark::DoNotOptimize(double_row);
  }
  SetThreadCount(0);
  std::size_t bytes = 0;
  for (const std::string& saved : models.saved) bytes += saved.size();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_LoadModel)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// The engine's per-anchor inference over every anchor of the shared
/// fleet's UER banks: 16 block probabilities from the single-row predictor
/// at each, from its bank's profile at that anchor, so the trees' walks
/// take as many paths as the traced ml.crossrow_infer_us sees. An
/// iteration scores them all; `anchor` is the time per anchor.
void BM_CrossRowBlockProba(benchmark::State& state) {
  const core::CrossRowPredictor& predictor = SharedServedModels().single;
  std::vector<std::pair<core::BankProfile, core::Anchor>> anchors;
  for (const trace::BankHistory& bank : SharedBanks()) {
    core::BankProfile profile;
    std::size_t next = 0;
    for (const core::Anchor& anchor : predictor.AnchorsOf(bank)) {
      while (next < bank.events.size() &&
             bank.events[next].time_s <= anchor.time_s) {
        profile.Observe(bank.events[next++]);
      }
      anchors.emplace_back(profile, anchor);
    }
  }
  for (auto _ : state) {
    for (const auto& [profile, anchor] : anchors) {
      benchmark::DoNotOptimize(
          predictor.PredictBlockProbaFromProfile(profile, anchor));
    }
  }
  state.SetLabel(std::to_string(anchors.size()) + " anchors");
  state.counters["anchor"] = benchmark::Counter(
      static_cast<double>(anchors.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_CrossRowBlockProba)->Unit(benchmark::kMillisecond);

void BM_FleetGeneration(benchmark::State& state) {
  hbm::TopologyConfig topology;
  trace::CalibrationProfile profile;
  profile.scale = 0.02;
  trace::FleetGenerator generator(topology, profile);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(++seed));
  }
}
BENCHMARK(BM_FleetGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
