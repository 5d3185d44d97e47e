// Binary state codec: the fixed-width payload behind engine-state and delta
// frames must be lossless — a restored server re-encodes to the exact bytes
// it was restored from, at every prefix of a replayed trace, including
// non-finite doubles and empty/saturated bank profiles, and keeps absorbing
// records bit-identically to the server that saved it. Plus the dirty-bank
// tracking contract delta checkpoints are built on.
// tests/core/bank_profile_test.cpp (incremental == batch at every prefix)
// stays the reference for what a profile must hold.
#include "persist/binary_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/bank_profile.hpp"
#include "serve/fleet_server.hpp"
#include "support/serve_world.hpp"

namespace cordial::persist {
namespace {

using serve::FleetServer;
using serve::test_support::SharedWorld;
using serve::test_support::World;

constexpr std::size_t kShardCount = 2;

FleetServer MakeServer(const World& w,
                       core::EngineConfig engine = core::EngineConfig{}) {
  serve::FleetServerConfig config;
  config.shard_count = kShardCount;
  config.engine = engine;
  return FleetServer(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
}

/// Feed records [begin, end) and leave the server drained.
void Feed(FleetServer& server, const World& w, std::size_t begin,
          std::size_t end) {
  const auto& records = w.fleet.log.records();
  for (std::size_t i = begin; i < std::min(end, records.size()); ++i) {
    server.Submit(records[i]);
  }
  server.Drain();
}

std::string Checkpoint(const FleetServer& server) {
  std::ostringstream out;
  server.SaveCheckpoint(out);
  return out.str();
}

void Restore(FleetServer& server, const std::string& bytes) {
  std::istringstream in(bytes);
  server.RestoreCheckpoint(in);
}

// --- primitives -----------------------------------------------------------

TEST(PersistBinaryPrimitives, FixedWidthFieldsRoundTripBitExactly) {
  std::string buffer;
  BinaryWriter writer(buffer);
  writer.U8(0);
  writer.U8(0xFF);
  writer.U32(0);
  writer.U32(0xDEADBEEFu);
  writer.U64(0);
  writer.U64(~0ull);
  writer.I64(-1);
  writer.I64(std::numeric_limits<std::int64_t>::min());

  // Doubles must round-trip as raw bit patterns: quiet/signalling NaNs with
  // payloads, both infinities, negative zero, denormals.
  const std::uint64_t double_bits[] = {
      0x0000000000000000ull,  // +0.0
      0x8000000000000000ull,  // -0.0
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
      0x7FF8000000000000ull,  // quiet NaN
      0xFFF8DEADBEEF0001ull,  // negative NaN with payload
      0x7FF0000000000001ull,  // signalling NaN
      0x0000000000000001ull,  // smallest denormal
      0x3FF0000000000000ull,  // 1.0
  };
  for (const std::uint64_t bits : double_bits) {
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    writer.F64(value);
  }
  writer.Bytes("payload");

  BinaryReader reader(buffer, "test");
  EXPECT_EQ(reader.U8(), 0u);
  EXPECT_EQ(reader.U8(), 0xFFu);
  EXPECT_EQ(reader.U32(), 0u);
  EXPECT_EQ(reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64(), 0u);
  EXPECT_EQ(reader.U64(), ~0ull);
  EXPECT_EQ(reader.I64(), -1);
  EXPECT_EQ(reader.I64(), std::numeric_limits<std::int64_t>::min());
  for (const std::uint64_t bits : double_bits) {
    const double value = reader.F64();
    std::uint64_t read_bits = 0;
    std::memcpy(&read_bits, &value, sizeof read_bits);
    EXPECT_EQ(read_bits, bits);
  }
  EXPECT_EQ(reader.Bytes(7), "payload");
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_NO_THROW(reader.ExpectEnd());
}

TEST(PersistBinaryPrimitives, TruncationAndBadCountsFailClosed) {
  std::string buffer;
  BinaryWriter writer(buffer);
  writer.U32(7);
  BinaryReader short_read(buffer, "test");
  EXPECT_THROW(short_read.U64(), ParseError);

  // An element count that cannot fit in the remaining payload is rejected
  // before any allocation.
  std::string counted;
  BinaryWriter counted_writer(counted);
  counted_writer.U64(1u << 20);
  BinaryReader count_reader(counted, "test");
  EXPECT_THROW(count_reader.Count(8), ParseError);

  // Trailing bytes after the last field are an error, not ignored.
  BinaryReader trailing(buffer, "test");
  EXPECT_THROW(trailing.ExpectEnd(), ParseError);
}

// --- BankProfile binary codec --------------------------------------------

trace::MceRecord Make(double t, std::uint32_t row, hbm::ErrorType type) {
  trace::MceRecord r;
  r.time_s = t;
  r.address.row = row;
  r.type = type;
  return r;
}

std::string ProfileBytes(const core::BankProfile& profile) {
  std::string bytes;
  BinaryWriter writer(bytes);
  profile.SaveBinary(writer);
  return bytes;
}

core::BankProfile BinaryRoundTrip(const core::BankProfile& profile) {
  const std::string bytes = ProfileBytes(profile);
  BinaryReader reader(bytes, "profile round-trip");
  core::BankProfile loaded = core::BankProfile::LoadBinary(reader);
  reader.ExpectEnd();
  return loaded;
}

TEST(PersistBinaryCodec, EmptyProfileRoundTripsThroughBinary) {
  const core::BankProfile empty(3);
  core::BankProfile loaded = BinaryRoundTrip(empty);
  EXPECT_EQ(ProfileBytes(loaded), ProfileBytes(empty));
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.max_uers(), 3u);

  // The restored empty profile absorbs its first record bit-identically.
  core::BankProfile original = empty;
  original.Observe(Make(1.0, 7, hbm::ErrorType::kUer));
  loaded.Observe(Make(1.0, 7, hbm::ErrorType::kUer));
  EXPECT_EQ(ProfileBytes(loaded), ProfileBytes(original));
}

TEST(PersistBinaryCodec, SaturatedProfileRoundTripsThroughBinary) {
  // max_uers=1 caps the classification view immediately; keep observing past
  // the cap so the capped/frozen split is exercised too.
  core::BankProfile profile(1);
  profile.Observe(Make(1.0, 10, hbm::ErrorType::kCe));
  profile.Observe(Make(2.0, 11, hbm::ErrorType::kUeo));
  profile.Observe(Make(3.0, 12, hbm::ErrorType::kUer));
  profile.Observe(Make(4.0, 13, hbm::ErrorType::kUer));
  profile.Observe(Make(5.0, 14, hbm::ErrorType::kCe));
  ASSERT_TRUE(profile.HasClassificationView());

  core::BankProfile loaded = BinaryRoundTrip(profile);
  EXPECT_EQ(ProfileBytes(loaded), ProfileBytes(profile));

  // The restored profile keeps absorbing events bit-identically — the
  // derived uer_row_gaps included, which the bytes do not carry.
  core::BankProfile original = profile;
  for (core::BankProfile* p : {&original, &loaded}) {
    p->Observe(Make(6.0, 15, hbm::ErrorType::kUer));
    p->Observe(Make(7.0, 40, hbm::ErrorType::kUer));
  }
  EXPECT_EQ(ProfileBytes(loaded), ProfileBytes(original));
  EXPECT_EQ(loaded.crossrow().uer_row_gaps, original.crossrow().uer_row_gaps);
  EXPECT_EQ(loaded.crossrow().EstimatedUerStride(),
            original.crossrow().EstimatedUerStride());
}

// --- engine-state equivalence --------------------------------------------

TEST(PersistBinaryCodec, RestoreReencodesByteIdenticallyAtEveryPrefix) {
  const World& w = SharedWorld();
  FleetServer donor = MakeServer(w);
  FleetServer restored = MakeServer(w);
  donor.Start();

  const std::size_t total =
      std::min<std::size_t>(w.fleet.log.records().size(), 160);
  for (std::size_t prefix = 0; prefix <= total; ++prefix) {
    if (prefix > 0) Feed(donor, w, prefix - 1, prefix);
    const std::string saved = Checkpoint(donor);
    Restore(restored, saved);
    EXPECT_EQ(Checkpoint(restored), saved) << "prefix " << prefix;
  }

  // The last restore keeps absorbing the feed exactly as the donor does.
  restored.Start();
  Feed(restored, w, total, total + 40);
  Feed(donor, w, total, total + 40);
  restored.Stop();
  donor.Stop();
  EXPECT_EQ(Checkpoint(restored), Checkpoint(donor));
  EXPECT_EQ(restored.AggregateStats(), donor.AggregateStats());
}

TEST(PersistBinaryCodec, RestoredServerContinuesBitIdentically) {
  const World& w = SharedWorld();
  FleetServer donor = MakeServer(w);
  donor.Start();
  Feed(donor, w, 0, 80);

  FleetServer restored = MakeServer(w);
  Restore(restored, Checkpoint(donor));
  restored.Start();
  Feed(donor, w, 80, 160);
  Feed(restored, w, 80, 160);
  donor.Stop();
  restored.Stop();
  EXPECT_EQ(Checkpoint(restored), Checkpoint(donor));
  EXPECT_EQ(restored.AggregateStats(), donor.AggregateStats());
}

TEST(PersistBinaryCodec, NonFiniteBudgetCostsSurviveBinaryRoundTrip) {
  const World& w = SharedWorld();
  core::EngineConfig engine;
  engine.budget.row_spare_cost = std::numeric_limits<double>::infinity();
  engine.budget.bank_spare_cost = std::numeric_limits<double>::quiet_NaN();
  FleetServer donor = MakeServer(w, engine);
  donor.Start();
  Feed(donor, w, 0, 120);
  donor.Stop();

  const std::string saved = Checkpoint(donor);
  FleetServer restored = MakeServer(w, engine);
  Restore(restored, saved);
  EXPECT_EQ(Checkpoint(restored), saved);
  const hbm::SparingBudget& budget =
      restored.shard(0).engine().ledger().budget();
  EXPECT_TRUE(std::isinf(budget.row_spare_cost));
  EXPECT_TRUE(std::isnan(budget.bank_spare_cost));
}

// --- dirty tracking + delta equivalence -----------------------------------

TEST(PersistDelta, DirtyTrackingFollowsObserveAndClean) {
  const World& w = SharedWorld();
  FleetServer server = MakeServer(w);
  EXPECT_EQ(server.DirtyBankCount(), 0u);
  server.Start();
  Feed(server, w, 0, 40);

  const std::size_t dirty = server.DirtyBankCount();
  EXPECT_GT(dirty, 0u);
  EXPECT_LE(dirty, server.TotalBankCount());

  // Serializing a delta does NOT clear the dirty set (the bytes are not
  // durable yet); it writes exactly the dirty banks.
  std::ostringstream delta;
  EXPECT_EQ(server.SaveDeltaCheckpoint(delta), dirty);
  EXPECT_EQ(server.DirtyBankCount(), dirty);

  server.MarkCheckpointClean();
  EXPECT_EQ(server.DirtyBankCount(), 0u);
  std::ostringstream empty_delta;
  EXPECT_EQ(server.SaveDeltaCheckpoint(empty_delta), 0u);

  // New observations dirty banks again; re-touching the same banks does not
  // double-count.
  Feed(server, w, 40, 80);
  const std::size_t redirtied = server.DirtyBankCount();
  EXPECT_GT(redirtied, 0u);
  EXPECT_LE(redirtied, server.TotalBankCount());
  server.Stop();
}

TEST(PersistDelta, FullPlusDeltasRestoreBitIdenticallyToUninterrupted) {
  const World& w = SharedWorld();
  constexpr std::size_t kEvery = 24;
  constexpr std::size_t kTotal = 144;

  FleetServer donor = MakeServer(w);
  donor.Start();
  Feed(donor, w, 0, kEvery);
  const std::string full = Checkpoint(donor);
  donor.MarkCheckpointClean();

  std::vector<std::string> deltas;
  for (std::size_t at = kEvery; at < kTotal; at += kEvery) {
    Feed(donor, w, at, at + kEvery);
    std::ostringstream out;
    donor.SaveDeltaCheckpoint(out);
    donor.MarkCheckpointClean();
    deltas.push_back(out.str());
  }
  donor.Stop();

  // full + deltas == the uninterrupted server, bit for bit.
  FleetServer follower = MakeServer(w);
  Restore(follower, full);
  for (const std::string& delta : deltas) {
    std::istringstream in(delta);
    follower.ApplyDeltaCheckpoint(in);
  }
  EXPECT_EQ(Checkpoint(follower), Checkpoint(donor));

  // ...and keeps consuming the feed bit-identically afterwards.
  FleetServer reference = MakeServer(w);
  Restore(reference, Checkpoint(donor));
  follower.Start();
  reference.Start();
  Feed(follower, w, kTotal, kTotal + 40);
  Feed(reference, w, kTotal, kTotal + 40);
  follower.Stop();
  reference.Stop();
  EXPECT_EQ(Checkpoint(follower), Checkpoint(reference));
}

TEST(PersistDelta, EmptyDeltaIsAnExactNoOp) {
  const World& w = SharedWorld();
  FleetServer server = MakeServer(w);
  server.Start();
  Feed(server, w, 0, 50);
  server.Stop();
  server.MarkCheckpointClean();

  std::ostringstream out;
  ASSERT_EQ(server.SaveDeltaCheckpoint(out), 0u);
  const std::string before = Checkpoint(server);
  std::istringstream in(out.str());
  server.ApplyDeltaCheckpoint(in);
  EXPECT_EQ(Checkpoint(server), before);
}

TEST(PersistDelta, DeltaWithWrongShardCountIsRejected) {
  const World& w = SharedWorld();
  FleetServer donor = MakeServer(w);
  donor.Start();
  Feed(donor, w, 0, 30);
  donor.Stop();
  std::ostringstream out;
  donor.SaveDeltaCheckpoint(out);

  serve::FleetServerConfig config;
  config.shard_count = kShardCount + 1;
  FleetServer other(w.topology, w.classifier, w.single_pred, w.double_or_null(),
                    config);
  std::istringstream in(out.str());
  EXPECT_THROW(other.ApplyDeltaCheckpoint(in), ParseError);
}

}  // namespace
}  // namespace cordial::persist
