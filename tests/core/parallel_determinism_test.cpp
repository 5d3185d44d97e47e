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
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/isolation.hpp"
#include "hbm/address.hpp"
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
constexpr std::uint64_t kGoldenForestHash = 0x7cbdf061a4dc03d9ULL;

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
