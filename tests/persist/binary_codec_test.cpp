// Binary state codec: the compact payload behind engine-state and delta
// frames must be lossless — a restored server re-encodes to the exact bytes
// it was restored from, at every prefix of a replayed trace, including
// non-finite doubles, -0.0 timestamps and empty/saturated bank profiles,
// and keeps absorbing records bit-identically to the server that saved it
// — and its primitives must decode only what they encode. Plus the
// dirty-bank tracking contract delta checkpoints are built on.
// tests/core/bank_profile_test.cpp (incremental == batch at every prefix)
// stays the reference for what a profile must hold.
#include "persist/binary_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
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
void Feed(FleetServer& server, const std::vector<trace::MceRecord>& records,
          std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < std::min(end, records.size()); ++i) {
    server.Submit(records[i]);
  }
  server.Drain();
}

void Feed(FleetServer& server, const World& w, std::size_t begin,
          std::size_t end) {
  Feed(server, w.fleet.log.records(), begin, end);
}

std::string Checkpoint(const FleetServer& server) {
  std::ostringstream out;
  server.SaveCheckpoint(out);
  return out.str();
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
  writer.Bool(false);
  writer.Bool(true);

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
  EXPECT_FALSE(reader.Bool());
  EXPECT_TRUE(reader.Bool());
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

TEST(PersistBinaryPrimitives, VarintsRoundTripAtTheirShortestLength) {
  const struct {
    std::uint64_t value;
    std::size_t bytes;
  } unsigned_cases[] = {
      {0, 1},     {1, 1},           {127, 1},         {128, 2},    {16383, 2},
      {16384, 3}, {0xFFFFFFFFull, 5}, {1ull << 63, 10}, {~0ull, 10},
  };
  for (const auto& c : unsigned_cases) {
    std::string buffer;
    BinaryWriter(buffer).Var(c.value);
    EXPECT_EQ(buffer.size(), c.bytes) << c.value;
    BinaryReader reader(buffer, "test");
    EXPECT_EQ(reader.Var(), c.value);
    EXPECT_TRUE(reader.AtEnd());
  }
  const struct {
    std::int64_t value;
    std::size_t bytes;
  } signed_cases[] = {
      {0, 1},   {-1, 1}, {1, 1},  {-64, 1}, {63, 1},
      {-65, 2}, {64, 2}, {std::numeric_limits<std::int64_t>::min(), 10},
      {std::numeric_limits<std::int64_t>::max(), 10},
  };
  for (const auto& c : signed_cases) {
    std::string buffer;
    BinaryWriter(buffer).VarSigned(c.value);
    EXPECT_EQ(buffer.size(), c.bytes) << c.value;
    BinaryReader reader(buffer, "test");
    EXPECT_EQ(reader.VarSigned(), c.value);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(PersistBinaryPrimitives, MaskedDoublesKeepEveryBitPatternButPositiveZero) {
  const std::uint64_t bits[] = {
      0x0000000000000000ull,  // +0.0: the only value left out
      0x8000000000000000ull,  // -0.0
      0xFFF8DEADBEEF0001ull,  // negative NaN with payload
      0x7FF0000000000001ull,  // signalling NaN
      0x3FF0000000000000ull,  // 1.0
  };
  double values[5];
  for (int i = 0; i < 5; ++i) std::memcpy(&values[i], &bits[i], 8);
  std::string buffer;
  BinaryWriter(buffer).MaskedF64(
      {values[0], values[1], values[2], values[3], values[4]});
  EXPECT_EQ(buffer.size(), 1u + 4 * 8);  // mask byte + four present fields
  double read[5] = {1, 1, 1, 1, 1};
  BinaryReader reader(buffer, "test");
  reader.MaskedF64({&read[0], &read[1], &read[2], &read[3], &read[4]});
  EXPECT_TRUE(reader.AtEnd());
  for (int i = 0; i < 5; ++i) {
    std::uint64_t read_bits = 0;
    std::memcpy(&read_bits, &read[i], 8);
    EXPECT_EQ(read_bits, bits[i]) << i;
  }
}

TEST(PersistBinaryPrimitives, AscendingRowsStoreGapsAndRefuseDisorder) {
  const std::vector<std::uint32_t> rows = {3, 4, 100, 4294967295u};
  std::string buffer;
  BinaryWriter(buffer).AscendingU32(rows);
  // count, first row, gaps 1 and 96, then a 5-byte gap to UINT32_MAX.
  EXPECT_EQ(buffer.size(), 1u + 1 + 1 + 1 + 5);
  BinaryReader reader(buffer, "test");
  EXPECT_EQ(reader.AscendingU32(), rows);
  EXPECT_TRUE(reader.AtEnd());

  // The writer accepts only sorted distinct rows.
  for (const std::vector<std::uint32_t>& bad :
       {std::vector<std::uint32_t>{5, 5}, std::vector<std::uint32_t>{6, 5}}) {
    std::string out;
    EXPECT_THROW(BinaryWriter(out).AscendingU32(bad), ContractViolation);
  }
  const std::vector<std::uint32_t> ledger_rows = {0, 7, 8};
  std::string ledger;
  BinaryWriter(ledger).AscendingU32(ledger_rows);
  BinaryReader ledger_reader(ledger, "test");
  EXPECT_EQ(ledger_reader.AscendingU32(), ledger_rows);
}

TEST(PersistBinaryPrimitives, NonCanonicalBytesAreParseErrors) {
  // Each buffer is one field the writer never emits.
  const struct {
    const char* what;
    std::string bytes;
    std::function<void(BinaryReader&)> read;
  } cases[] = {
      {"overlong varint", std::string("\x80\x00", 2),
       [](BinaryReader& r) { r.Var(); }},
      {"overlong zero", std::string("\x80\x80\x00", 3),
       [](BinaryReader& r) { r.Var(); }},
      {"varint past 64 bits",
       std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", 10),
       [](BinaryReader& r) { r.Var(); }},
      {"eleven-byte varint",
       std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x81\x00", 11),
       [](BinaryReader& r) { r.Var(); }},
      {"truncated varint", std::string("\x80", 1),
       [](BinaryReader& r) { r.Var(); }},
      {"boolean byte 2", std::string("\x02", 1),
       [](BinaryReader& r) { r.Bool(); }},
      {"mask bit beyond the fields", std::string("\x04", 1),
       [](BinaryReader& r) {
         double a = 0.0, b = 0.0;
         r.MaskedF64({&a, &b});
       }},
      {"present +0.0", std::string("\x01\0\0\0\0\0\0\0\0", 9),
       [](BinaryReader& r) {
         double a = 0.0;
         r.MaskedF64({&a});
       }},
      {"row gap of 0", std::string("\x02\x05\x00", 3),
       [](BinaryReader& r) { r.AscendingU32(); }},
      {"first row past UINT32_MAX", std::string("\x01\x80\x80\x80\x80\x10", 6),
       [](BinaryReader& r) { r.AscendingU32(); }},
      {"gap past UINT32_MAX",
       std::string("\x02\xff\xff\xff\xff\x0f\x01", 7),
       [](BinaryReader& r) { r.AscendingU32(); }},
      {"row count past the payload", std::string("\x05\x01", 2),
       [](BinaryReader& r) { r.AscendingU32(); }},
  };
  for (const auto& c : cases) {
    BinaryReader reader(c.bytes, "test");
    EXPECT_THROW(c.read(reader), ParseError) << c.what;
  }
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
  EXPECT_EQ(loaded.uer().uer_row_gaps, original.uer().uer_row_gaps);
  EXPECT_EQ(loaded.uer().EstimatedUerStride(),
            original.uer().EstimatedUerStride());
}

// --- engine-state equivalence --------------------------------------------

/// Two banks whose records start at t = -0.0 — a valid CSV timestamp that
/// the wire codec carries bit-exactly — then continue at +0.0 and later.
/// Bank A reaches its third UER (classification, and cross-row predictions
/// when it clusters); bank B only ever sees CEs.
std::vector<trace::MceRecord> NegativeZeroTrace(const World& w) {
  const hbm::DeviceAddress a = w.fleet.log.records().front().address;
  hbm::DeviceAddress b = a;
  b.bank = (a.bank + 1) % w.topology.banks_per_bank_group;
  const auto at = [](hbm::DeviceAddress address, double t, std::uint32_t row,
                     hbm::ErrorType type) {
    trace::MceRecord r;
    r.time_s = t;
    address.row = row;
    r.address = address;
    r.type = type;
    return r;
  };
  using hbm::ErrorType;
  return {
      at(a, -0.0, 100, ErrorType::kCe),  at(b, -0.0, 7, ErrorType::kCe),
      at(a, -0.0, 100, ErrorType::kCe),  at(a, -0.0, 104, ErrorType::kUer),
      at(b, -0.0, 9, ErrorType::kCe),    at(a, 0.0, 101, ErrorType::kUeo),
      at(a, 0.0, 98, ErrorType::kCe),    at(b, 0.0, 7, ErrorType::kCe),
      at(a, 0.5, 110, ErrorType::kUer),  at(a, 1.0, 102, ErrorType::kCe),
      at(a, 2.0, 106, ErrorType::kUer),  at(b, 2.5, 12, ErrorType::kCe),
      at(a, 3.0, 96, ErrorType::kUer),   at(a, 4.0, 97, ErrorType::kCe),
      at(a, 5.0, 108, ErrorType::kUer),  at(b, 6.0, 8, ErrorType::kCe),
  };
}

/// Every value a profile holds or derives: doubles as raw bits, counts and
/// flags as they are. A codec that dropped doubles *equal* to 0.0 would
/// write -0.0 and +0.0 alike, so its bytes could not tell them apart; these
/// bits can. The decoder recomputes the UER row gaps the bytes leave out,
/// and restores the Cordial state beside the profile, so those are compared
/// too.
std::vector<std::uint64_t> AccessorBits(const core::BankProfile& profile) {
  std::vector<std::uint64_t> bits;
  const auto add = [&](double value) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  };
  const auto add_chains = [&](std::initializer_list<const core::DiffChain*>
                                  chains) {
    for (const core::DiffChain* chain : chains) {
      for (const double v : {chain->sum, chain->min, chain->max, chain->last}) {
        add(v);
      }
    }
  };
  const auto add_rows = [&](const std::vector<std::uint32_t>& rows) {
    bits.push_back(rows.size());
    bits.insert(bits.end(), rows.begin(), rows.end());
  };
  bits.push_back(profile.event_count());
  add(profile.last_time_s());
  bits.push_back(profile.HasClassificationView());
  bits.push_back(profile.classification_uer_count());
  const core::ClassAccumulator& c = profile.classification();
  bits.insert(bits.end(), {c.ce_total, c.ueo_total});
  for (const double v :
       {c.ce_row_min, c.ce_row_max, c.ueo_row_min, c.ueo_row_max,
        c.last_uer_time, c.ce_before_first_uer, c.ueo_before_first_uer}) {
    add(v);
  }
  add_chains({&c.uer_row_diff, &c.all_row_diff, &c.ce_dt, &c.ueo_dt,
              &c.uer_dt});
  add_rows(c.distinct_uer_rows);
  bits.insert(bits.end(), {profile.ce_count(), profile.ueo_count(),
                           profile.uer_event_count()});
  add_chains({&profile.all_row_diff(), &profile.ce_dt(), &profile.ueo_dt()});
  add_rows(profile.ce_rows());
  add_rows(profile.ueo_rows());
  const core::UerBlock& u = profile.uer();
  add(u.first_uer_time);
  add_chains({&u.uer_row_diff, &u.uer_dt});
  add_rows(u.uer_rows);
  add_rows(u.uer_row_gaps);
  const core::CordialBankState& s = u.cordial;
  bits.insert(bits.end(),
              {s.uer_events_seen, s.anchors_used, s.classified,
               static_cast<std::uint64_t>(s.bank_class),
               static_cast<std::uint64_t>(s.last_anchor_row)});
  return bits;
}

/// The bits of every profile `records` touched, in record order.
std::vector<std::uint64_t> ProfileBits(
    const FleetServer& server, const std::vector<trace::MceRecord>& records) {
  std::vector<std::uint64_t> bits;
  const hbm::AddressCodec& codec = server.shard(0).engine().codec();
  for (const trace::MceRecord& record : records) {
    const std::uint64_t key = codec.BankKey(record.address);
    const core::BankProfile* profile =
        server.shard(server.ShardOf(key)).engine().FindProfile(key);
    if (profile == nullptr) continue;
    const std::vector<std::uint64_t> more = AccessorBits(*profile);
    bits.insert(bits.end(), more.begin(), more.end());
  }
  return bits;
}

TEST(PersistBinaryCodec, RestoreReencodesByteIdenticallyAtEveryPrefix) {
  const World& w = SharedWorld();
  const auto& fleet = w.fleet.log.records();
  const struct {
    const char* name;
    std::vector<trace::MceRecord> records;
    std::size_t prefixes;  ///< the rest is fed after the last restore
  } traces[] = {
      {"fleet",
       {fleet.begin(),
        fleet.begin() + std::min<std::ptrdiff_t>(fleet.size(), 200)},
       160},
      {"negative zero", NegativeZeroTrace(w), 12},
  };
  for (const auto& trace : traces) {
    SCOPED_TRACE(trace.name);
    FleetServer donor = MakeServer(w);
    FleetServer restored = MakeServer(w);
    donor.Start();
    const std::size_t total = std::min(trace.records.size(), trace.prefixes);
    for (std::size_t prefix = 0; prefix <= total; ++prefix) {
      if (prefix > 0) Feed(donor, trace.records, prefix - 1, prefix);
      const std::string saved = Checkpoint(donor);
      restored.RestoreCheckpoint(saved);
      EXPECT_EQ(Checkpoint(restored), saved) << "prefix " << prefix;
      EXPECT_EQ(ProfileBits(restored, trace.records),
                ProfileBits(donor, trace.records))
          << "prefix " << prefix;
    }

    // The last restore keeps absorbing the feed exactly as the donor does.
    restored.Start();
    Feed(restored, trace.records, total, trace.records.size());
    Feed(donor, trace.records, total, trace.records.size());
    restored.Stop();
    donor.Stop();
    EXPECT_EQ(Checkpoint(restored), Checkpoint(donor));
    EXPECT_EQ(ProfileBits(restored, trace.records),
              ProfileBits(donor, trace.records));
    EXPECT_EQ(restored.AggregateStats(), donor.AggregateStats());
  }
}

TEST(PersistBinaryCodec, RestoredServerContinuesBitIdentically) {
  const World& w = SharedWorld();
  FleetServer donor = MakeServer(w);
  donor.Start();
  Feed(donor, w, 0, 80);

  FleetServer restored = MakeServer(w);
  restored.RestoreCheckpoint(Checkpoint(donor));
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
  restored.RestoreCheckpoint(saved);
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
  follower.RestoreCheckpoint(full);
  for (const std::string& delta : deltas) {
    follower.ApplyDeltaCheckpoint(delta);
  }
  EXPECT_EQ(Checkpoint(follower), Checkpoint(donor));

  // ...and keeps consuming the feed bit-identically afterwards.
  FleetServer reference = MakeServer(w);
  reference.RestoreCheckpoint(Checkpoint(donor));
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
  server.ApplyDeltaCheckpoint(out.str());
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
  EXPECT_THROW(other.ApplyDeltaCheckpoint(out.str()), ParseError);
}

}  // namespace
}  // namespace cordial::persist
