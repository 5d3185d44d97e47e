// End-to-end determinism of the parallel execution layer: fleet generation,
// random-forest training, and ICR replay must produce bit-identical results
// at every thread count, and stay stable for a fixed seed across releases.
//
// The golden hashes below are captured from this implementation (the
// parallel layer re-keyed RNG consumption to per-task forks, so pre-change
// serial output is not comparable); they pin the (seed -> output) mapping
// so any accidental change to RNG consumption order fails loudly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/isolation.hpp"
#include "hbm/address.hpp"
#include "ml/booster.hpp"
#include "ml/classifier.hpp"
#include "ml/dataset.hpp"
#include "ml/forest.hpp"
#include "persist/binary_io.hpp"
#include "trace/error_log.hpp"
#include "trace/fleet.hpp"

namespace cordial {
namespace {

// FNV-1a over 64-bit words — stable, order-sensitive.
std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

std::uint64_t HashDouble(std::uint64_t h, double d) {
  return HashMix(h, std::bit_cast<std::uint64_t>(d));
}

std::uint64_t FleetHash(const trace::GeneratedFleet& fleet) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const trace::MceRecord& r : fleet.log.records()) {
    h = HashDouble(h, r.time_s);
    h = HashMix(h, (static_cast<std::uint64_t>(r.address.npu) << 40) ^
                       (static_cast<std::uint64_t>(r.address.hbm) << 32) ^
                       (static_cast<std::uint64_t>(r.address.row) << 10) ^
                       r.address.col);
    h = HashMix(h, static_cast<std::uint64_t>(r.type));
  }
  for (const trace::BankTruth& b : fleet.banks) {
    h = HashMix(h, b.bank_key);
    h = HashMix(h, static_cast<std::uint64_t>(b.shape));
    for (const std::uint32_t row : b.planned_uer_rows) h = HashMix(h, row);
  }
  return h;
}

std::uint64_t HashString(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) h = HashMix(h, static_cast<unsigned char>(c));
  return h;
}

trace::GeneratedFleet SmallFleet(std::uint64_t seed) {
  hbm::TopologyConfig topology;
  trace::CalibrationProfile profile;
  profile.scale = 0.05;
  return trace::FleetGenerator(topology, profile).Generate(seed);
}

std::uint64_t FleetHashAt(std::size_t threads, std::uint64_t seed) {
  SetThreadCount(threads);
  const std::uint64_t h = FleetHash(SmallFleet(seed));
  SetThreadCount(0);
  return h;
}

/// Deterministic two-class dataset with informative and noise features.
ml::Dataset SyntheticDataset() {
  ml::Dataset data(/*num_features=*/6, /*num_classes=*/2);
  Rng rng(2024);
  for (int i = 0; i < 600; ++i) {
    const int label = static_cast<int>(rng.UniformU64(2));
    double row[6];
    for (double& v : row) v = rng.UniformReal();
    row[0] += label * 0.8;
    row[1] -= label * 0.5;
    data.AddRow(row, label);
  }
  return data;
}

std::string ForestFingerprint(std::size_t threads, const ml::Dataset& data) {
  SetThreadCount(threads);
  ml::RandomForestOptions options;
  options.n_trees = 31;
  ml::RandomForestClassifier forest(options);
  Rng rng(123);
  forest.Fit(data, rng);
  SetThreadCount(0);
  std::string bytes;
  persist::BinaryWriter out(bytes);
  forest.Encode(out);
  return bytes;
}

// Golden values captured at CORDIAL_THREADS=1 on the reference toolchain.
constexpr std::uint64_t kGoldenFleetHash = 0x71fa4cf20ccef6d9ULL;
constexpr std::uint64_t kGoldenForestHash = 0x16ef701e77ccad38ULL;

std::string Encoded(const ml::Classifier& model) {
  std::string bytes;
  persist::BinaryWriter out(bytes);
  model.Encode(out);
  return bytes;
}

/// An XGB-style and an LGBM-style booster fit on `data` at one thread,
/// encoded.
std::vector<std::string> SavedBoosters(const ml::Dataset& data) {
  std::vector<std::string> saved;
  ml::BoosterOptions xgb;
  xgb.n_rounds = 30;
  ml::BoosterOptions lgbm = xgb;
  lgbm.max_leaves = 31;
  lgbm.goss = true;
  SetThreadCount(1);
  for (const auto& booster :
       {ml::MakeXgbStyleBooster(xgb), ml::MakeLgbmStyleBooster(lgbm)}) {
    Rng rng(321);
    booster->Fit(data, rng);
    saved.push_back(Encoded(*booster));
  }
  SetThreadCount(0);
  return saved;
}

/// `saved` decoded as a model file's payload is, on `threads` threads.
std::unique_ptr<ml::Classifier> DecodeAt(std::size_t threads,
                                         std::string_view saved,
                                         std::size_t num_features) {
  SetThreadCount(threads);
  persist::BinaryReader in(saved, "saved model");
  std::unique_ptr<ml::Classifier> model;
  try {
    model = ml::DecodeClassifier(in, num_features);
    in.ExpectEnd();
  } catch (...) {
    SetThreadCount(0);
    throw;
  }
  SetThreadCount(0);
  return model;
}

/// The bits of every probability `model` gives the data's rows and a few
/// rows far outside them.
std::vector<std::uint64_t> ProbaBits(const ml::Classifier& model,
                                     const ml::Dataset& data) {
  std::vector<std::vector<double>> grid;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::span<const double> row = data.row(i);
    grid.emplace_back(row.begin(), row.end());
  }
  for (const double x : {-1e300, -1.0, 0.0, 0.5, 1.0, 2.0, 1e300}) {
    grid.emplace_back(data.num_features(), x);
  }
  std::vector<std::uint64_t> bits;
  for (const std::vector<double>& row : grid) {
    for (const double p : model.PredictProba(row)) {
      bits.push_back(std::bit_cast<std::uint64_t>(p));
    }
  }
  return bits;
}

/// A valid 2-class tree of `splits` splits over `features` features, long
/// enough to take a while to decode: each split's left child is the next
/// split, and its right child a leaf after the innermost split's two
/// leaves. Every leaf uses the table's one entry.
std::string ChainTree(std::size_t splits, std::size_t features) {
  std::string tree;
  persist::BinaryWriter out(tree);
  out.Var(2);    // classes
  out.Var(1);    // table entries
  out.F64(1.0);  // the entry's class frequencies
  out.F64(0.0);
  out.Var(2 * splits + 1);
  for (std::size_t i = 0; i < splits; ++i) {
    out.Var(1);  // splits on feature 0
    out.F64(0.5);
  }
  for (std::size_t i = 0; i <= splits; ++i) {
    out.Var(0);  // a leaf using entry 0
    out.Var(0);
  }
  for (std::size_t f = 0; f < features; ++f) out.F64(0.0);
  return tree;
}

/// The golden forest with two corrupt trees. Tree 3, replaced by a long
/// chain, reads to its end and leaves one byte of its span unread; tree
/// 20's root splits on a feature the model lacks. On the pool, other
/// threads reach tree 20 while tree 3 still decodes, so tree 20 usually
/// fails first.
std::string WithTwoCorruptTrees(const std::string& forest,
                                std::size_t features) {
  persist::BinaryReader in(forest, "walk");
  in.U8();   // learner tag
  in.Var();  // class count
  const std::uint64_t trees = in.Var();
  EXPECT_GT(trees, 20u);
  std::string corrupt(forest.substr(0, in.position()));
  persist::BinaryWriter out(corrupt);
  for (std::uint64_t t = 0; t < trees; ++t) {
    std::string tree(in.Bytes(in.Var()));
    if (t == 3) tree = ChainTree(50000, features) + '\0';
    if (t == 20) {
      persist::BinaryReader tree_in(tree, "walk tree");
      const std::uint64_t classes = tree_in.Var();
      const std::uint64_t entries = tree_in.Var();
      tree_in.Bytes(entries * classes * 8);  // the table
      tree_in.Var();                         // node count
      tree[tree_in.position()] = 0x7f;  // the root splits on feature 126
    }
    out.Var(tree.size());
    out.Bytes(tree);
  }
  return corrupt;
}

TEST(ParallelDeterminism, FleetIdenticalAcrossThreadCounts) {
  const std::uint64_t h1 = FleetHashAt(1, 42);
  const std::uint64_t h2 = FleetHashAt(2, 42);
  const std::uint64_t h8 = FleetHashAt(8, 42);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h8);
}

TEST(ParallelDeterminism, FleetSeedStableGolden) {
  EXPECT_EQ(FleetHashAt(1, 42), kGoldenFleetHash)
      << std::hex << "0x" << FleetHashAt(1, 42);
}

TEST(ParallelDeterminism, ForestIdenticalAcrossThreadCounts) {
  const ml::Dataset data = SyntheticDataset();
  const std::string f1 = ForestFingerprint(1, data);
  const std::string f2 = ForestFingerprint(2, data);
  const std::string f8 = ForestFingerprint(8, data);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, f8);
}

TEST(ParallelDeterminism, ModelsDecodeIdenticallyAcrossThreadCounts) {
  // A model's trees decode on the pool, one tree a task. The model must
  // not depend on how many threads decoded it: it re-encodes to the saved
  // bytes and predicts the same bits at every count.
  const ml::Dataset data = SyntheticDataset();
  std::vector<std::string> models = SavedBoosters(data);
  models.push_back(ForestFingerprint(1, data));
  for (const std::string& saved : models) {
    const std::vector<std::uint64_t> serial =
        ProbaBits(*DecodeAt(1, saved, data.num_features()), data);
    for (const std::size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      const auto model = DecodeAt(threads, saved, data.num_features());
      EXPECT_EQ(Encoded(*model), saved);
      EXPECT_EQ(ProbaBits(*model, data), serial);
    }
  }
}

TEST(ParallelDeterminism, LowestCorruptTreeIsNamedAtEveryThreadCount) {
  // Of two corrupt trees, the error is the lower-index tree's at every
  // count, whichever fails first on the pool.
  const ml::Dataset data = SyntheticDataset();
  const std::string corrupt =
      WithTwoCorruptTrees(ForestFingerprint(1, data), data.num_features());
  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    try {
      DecodeAt(threads, corrupt, data.num_features());
      ADD_FAILURE() << "decoded a forest with two corrupt trees";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "saved model tree 3: 1 unexpected trailing byte(s)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ParallelDeterminism, ForestSeedStableGolden) {
  const ml::Dataset data = SyntheticDataset();
  const std::uint64_t h = HashString(ForestFingerprint(1, data));
  EXPECT_EQ(h, kGoldenForestHash) << std::hex << "0x" << h;
}

TEST(ParallelDeterminism, IcrReplayMatchesSerial) {
  const trace::GeneratedFleet fleet = SmallFleet(7);
  hbm::AddressCodec codec(fleet.topology);
  const std::vector<trace::BankHistory> banks = fleet.log.GroupByBank(codec);
  std::vector<const trace::BankHistory*> uer_banks;
  for (const trace::BankHistory& bank : banks) {
    if (bank.HasUer()) uer_banks.push_back(&bank);
  }
  ASSERT_GT(uer_banks.size(), 1u);

  const core::IcrEvaluator evaluator(fleet.topology);
  auto evaluate_at = [&](std::size_t threads, core::IsolationStrategy& s) {
    SetThreadCount(threads);
    const core::IcrResult r = evaluator.Evaluate(uer_banks, s);
    SetThreadCount(0);
    return r;
  };
  auto expect_equal = [](const core::IcrResult& a, const core::IcrResult& b) {
    EXPECT_EQ(a.covered_rows, b.covered_rows);
    EXPECT_EQ(a.covered_by_bank_spare, b.covered_by_bank_spare);
    EXPECT_EQ(a.total_uer_rows, b.total_uer_rows);
    EXPECT_EQ(a.rows_spared, b.rows_spared);
    EXPECT_EQ(a.banks_spared, b.banks_spared);
    EXPECT_DOUBLE_EQ(a.sparing_cost, b.sparing_cost);
  };

  core::NeighborRowsStrategy neighbor(4, fleet.topology);
  expect_equal(evaluate_at(1, neighbor), evaluate_at(8, neighbor));
  core::InRowStrategy in_row;
  expect_equal(evaluate_at(1, in_row), evaluate_at(8, in_row));
}

}  // namespace
}  // namespace cordial
