// Durability torture: a checkpoint member mangled in ANY way — every byte
// prefix truncation, every single-bit flip, a corrupt or incompatible bank
// behind valid checksums — must either restore bit-identically or fail
// closed with ParseError and an untouched server, never UB, bad_alloc, or a
// half-restored engine. Plus the failure atomicity of the durable file
// write; the chain's use of it and boot recovery are pinned in
// tests/persist/chain_test.cpp.
#include "serve/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/framing.hpp"
#include "core/engine.hpp"
#include "core/persist.hpp"
#include "hbm/address.hpp"
#include "persist/binary_io.hpp"
#include "serve/fleet_server.hpp"
#include "support/reframe.hpp"
#include "trace/fleet.hpp"

namespace cordial::serve {
namespace {

struct World {
  hbm::TopologyConfig topology;
  trace::GeneratedFleet fleet;
  core::PatternClassifier classifier;
  core::CrossRowPredictor single_pred;
  core::CrossRowPredictor double_pred;
  bool double_ok = false;

  World()
      : fleet([] {
          hbm::TopologyConfig topology;
          trace::CalibrationProfile profile;
          profile.scale = 0.08;
          return trace::FleetGenerator(topology, profile).Generate(5);
        }()),
        classifier(topology, ml::LearnerKind::kRandomForest),
        single_pred(topology, ml::LearnerKind::kRandomForest),
        double_pred(topology, ml::LearnerKind::kRandomForest) {
    hbm::AddressCodec codec(topology);
    const auto banks = fleet.log.GroupByBank(codec);
    analysis::PatternLabeler labeler(topology);
    std::vector<core::LabelledBank> labelled;
    std::vector<const trace::BankHistory*> singles, doubles;
    for (const trace::BankHistory& bank : banks) {
      if (!bank.HasUer()) continue;
      const hbm::FailureClass cls = labeler.LabelClass(bank);
      labelled.push_back(core::LabelledBank{&bank, cls});
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
      double_ok = false;
    }
  }

  const core::CrossRowPredictor* double_or_null() const {
    return double_ok ? &double_pred : nullptr;
  }
};

const World& SharedWorld() {
  static const World* world = new World();
  return *world;
}

constexpr std::size_t kShardCount = 2;

FleetServer MakeServer(const World& w) {
  FleetServerConfig config;
  config.shard_count = kShardCount;
  return FleetServer(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
}

/// Feed records [begin, end) and leave the server drained (and startable
/// again — Drain, not Stop — for multi-generation checkpoint tests).
void Feed(FleetServer& server, const World& w, std::size_t begin,
          std::size_t end) {
  const auto& records = w.fleet.log.records();
  for (std::size_t i = begin; i < std::min(end, records.size()); ++i) {
    server.Submit(records[i]);
  }
  server.Drain();
}

std::string Checkpoint(const FleetServer& server) {
  std::string out;
  server.AppendCheckpoint(out);
  return out;
}

/// A victim server with non-trivial state of its own, so a "half restored"
/// outcome is distinguishable from "untouched".
FleetServer MakeVictim(const World& w) {
  FleetServer victim = MakeServer(w);
  victim.Start();
  Feed(victim, w, 0, 10);
  victim.Stop();
  return victim;
}

/// One small donor checkpoint shared by the torture loops (they are
/// O(bytes^2), so the state fed in is deliberately tiny).
const std::string& DonorCheckpoint() {
  static const std::string* bytes = [] {
    const World& w = SharedWorld();
    FleetServer donor = MakeServer(w);
    donor.Start();
    Feed(donor, w, 0, 24);
    donor.Stop();
    return new std::string(Checkpoint(donor));
  }();
  return *bytes;
}

/// One member the torture loops mangle: how it is applied (a full restores,
/// a delta applies over `base`) and the checkpoint a pristine apply must
/// leave — the donor's, since both members end at its last record.
struct TortureDonor {
  const char* name;
  std::string bytes;
  bool delta = false;
  std::string base;  ///< delta only: the full its victim starts from
};

const std::vector<TortureDonor>& TortureDonors() {
  static const std::vector<TortureDonor>* donors = [] {
    const World& w = SharedWorld();
    FleetServer donor = MakeServer(w);
    donor.Start();
    Feed(donor, w, 0, 12);
    const std::string base = Checkpoint(donor);
    donor.MarkCheckpointClean();
    Feed(donor, w, 12, 24);
    donor.Stop();
    std::string delta;
    donor.AppendDeltaCheckpoint(delta);
    return new std::vector<TortureDonor>{
        {"full", DonorCheckpoint(), false, ""},
        {"delta", delta, true, base},
    };
  }();
  return *donors;
}

/// A victim with state of its own: the small fed server for fulls, the
/// delta's base for the delta.
FleetServer MakeTortureVictim(const World& w, const TortureDonor& donor) {
  if (!donor.delta) return MakeVictim(w);
  FleetServer victim = MakeServer(w);
  victim.RestoreCheckpoint(donor.base);
  return victim;
}

void ApplyDonor(FleetServer& victim, const TortureDonor& donor,
                std::string_view bytes) {
  if (donor.delta) {
    victim.ApplyDeltaCheckpoint(bytes);
  } else {
    victim.RestoreCheckpoint(bytes);
  }
}

TEST(Durability, FullCheckpointRestoresBitIdentically) {
  const World& w = SharedWorld();
  const std::string& bytes = DonorCheckpoint();
  // The torture loops below re-parse the file once per byte/bit; keep the
  // donor small enough that they stay cheap (even under ASan).
  ASSERT_LT(bytes.size(), 16u * 1024) << "donor checkpoint grew too large "
                                         "for the O(n^2) torture loops";
  FleetServer restored = MakeServer(w);
  restored.RestoreCheckpoint(bytes);
  EXPECT_EQ(Checkpoint(restored), bytes);
}

TEST(Durability, EveryBytePrefixTruncationFailsClosed) {
  const World& w = SharedWorld();
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    const std::string& bytes = donor.bytes;
    ASSERT_LT(bytes.size(), 16u * 1024) << "donor grew too large for the "
                                           "O(n^2) torture loops";
    FleetServer victim = MakeTortureVictim(w, donor);
    const std::string victim_before = Checkpoint(victim);

    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::string_view prefix = std::string_view(bytes).substr(0, len);
      EXPECT_THROW(ApplyDonor(victim, donor, prefix), ParseError)
          << "prefix of " << len << " bytes";
      // Checking the full state every iteration would square the cost
      // again; sample it, plus the first and last prefixes.
      if (len % 64 == 0 || len + 1 == bytes.size()) {
        ASSERT_EQ(Checkpoint(victim), victim_before) << "prefix " << len;
      }
    }
    // The victim still accepts the pristine member afterwards.
    ApplyDonor(victim, donor, bytes);
    EXPECT_EQ(Checkpoint(victim), DonorCheckpoint());
  }
}

TEST(Durability, EverySingleBitFlipIsDetectedAndLeavesVictimUntouched) {
  const World& w = SharedWorld();
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    const std::string& bytes = donor.bytes;
    FleetServer victim = MakeTortureVictim(w, donor);
    const std::string victim_before = Checkpoint(victim);

    std::size_t flips = 0;
    std::string mangled = bytes;
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        mangled[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
        EXPECT_THROW(ApplyDonor(victim, donor, mangled), ParseError)
            << "byte " << byte << " bit " << bit;
        if (++flips % 97 == 0) {
          ASSERT_EQ(Checkpoint(victim), victim_before)
              << "byte " << byte << " bit " << bit;
        }
      }
      mangled[byte] = bytes[byte];
    }
    ASSERT_EQ(Checkpoint(victim), victim_before);
  }
}

/// Re-frame a member after `mutate` rewrote the engine payload of shard
/// `target` (see support/reframe.hpp).
std::string ReframeShard(const TortureDonor& donor, std::uint64_t target,
                         const std::function<void(std::string&)>& mutate) {
  return test_support::ReframeMember(
      donor.bytes, donor.delta,
      donor.delta ? core::kEngineDeltaVersion : core::kEngineStateVersion,
      [&](std::uint64_t shard, std::string& engine) {
        if (shard == target) mutate(engine);
      });
}

/// One bank record of an engine payload: its key, and where its blob sits
/// in the payload.
struct BlobSpan {
  std::uint64_t key = 0;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Every bank record of an engine payload (full or delta):
/// u32 header_len | header | u64 bank_count | (u64 key | u32 blob_len |
/// blob)...
std::vector<BlobSpan> BankBlobs(std::string_view engine_payload) {
  persist::BinaryReader reader(engine_payload, "test");
  reader.Bytes(reader.U32());
  std::vector<BlobSpan> blobs(reader.U64());
  for (BlobSpan& blob : blobs) {
    blob.key = reader.U64();
    blob.length = reader.U32();
    blob.offset = engine_payload.size() - reader.remaining();
    reader.Bytes(blob.length);
  }
  reader.ExpectEnd();
  return blobs;
}

/// Payload offsets of the first bank blob's fields the tests below
/// corrupt. The blob is read with the codec's own primitives and
/// BankProfile::LoadBinary through to its end, in the order the engine
/// writes it — Cordial state (varint uer_events_seen, varint anchors_used,
/// bool classified, u8 failure class, zigzag last_anchor_row), the profile
/// (varint truncation depth, events and accepted UERs, bool capped, then
/// its last event time and cutoff behind a presence mask), the ledger flags
/// and rows — so a format change that moves these fields fails here instead
/// of corrupting some other byte.
struct FirstBlobFields {
  std::size_t bank_class = 0;
  std::size_t max_uers = 0;
  std::size_t last_time = 0;  ///< the profile's last event time, 8 bytes
};

FirstBlobFields LocateFirstBlobFields(const std::string& engine_payload,
                                      std::size_t depth) {
  const std::vector<BlobSpan> blobs = BankBlobs(engine_payload);
  EXPECT_FALSE(blobs.empty()) << "shard section holds no bank";
  if (blobs.empty()) return {};
  const BlobSpan& first = blobs.front();
  persist::BinaryReader blob(
      std::string_view(engine_payload).substr(first.offset, first.length),
      "first bank blob");
  FirstBlobFields at;
  blob.Var();
  blob.Var();
  blob.Bool();
  at.bank_class = first.offset + blob.position();
  EXPECT_LE(blob.U8(), 2u);
  blob.VarSigned();
  at.max_uers = first.offset + blob.position();
  persist::BinaryReader profile_head = blob;
  profile_head.Var();
  profile_head.Var();
  profile_head.Var();
  profile_head.Bool();
  EXPECT_EQ(profile_head.Var() & 1u, 1u) << "no last event time present";
  at.last_time = first.offset + profile_head.position();
  EXPECT_EQ(core::BankProfile::LoadBinary(blob).max_uers(), depth);
  const std::uint8_t has_ledger_entry = 1;
  if ((blob.U8() & has_ledger_entry) != 0) {
    blob.AscendingU32();
  }
  blob.ExpectEnd();
  return at;
}

/// The engine clock of an engine payload (full or delta): the last field of
/// its header.
double HeaderClock(std::string_view engine_payload) {
  persist::BinaryReader reader(engine_payload, "test");
  const std::uint32_t header_len = reader.U32();
  reader.Bytes(header_len - 8);
  return reader.F64();
}

/// The engine-state frame of shard `shard` in a full checkpoint member.
std::string_view EngineFrame(std::string_view full, std::uint64_t shard) {
  std::string_view payload =
      ReadFramedView(full, kFleetCheckpointMagic, kFleetCheckpointVersion);
  const std::uint64_t shards = TakeShardCount(payload, "test");
  for (std::uint64_t s = 0; s < shards; ++s) {
    const std::string_view rest = payload;
    ReadFramedView(payload, core::kEngineStateMagic,
                   core::kEngineStateVersion);
    if (s == shard) return rest.substr(0, rest.size() - payload.size());
  }
  ADD_FAILURE() << "no shard " << shard;
  return {};
}

/// The blob `key` has in shard `shard` of a full checkpoint member.
std::string BlobBytes(const std::string& full, std::uint64_t shard,
                      std::uint64_t key) {
  std::string_view frame = EngineFrame(full, shard);
  const std::string_view engine = ReadFramedView(
      frame, core::kEngineStateMagic, core::kEngineStateVersion);
  for (const BlobSpan& blob : BankBlobs(engine)) {
    if (blob.key == key) {
      return std::string(engine.substr(blob.offset, blob.length));
    }
  }
  ADD_FAILURE() << "bank " << key << " not in shard " << shard;
  return {};
}

/// Restore shard `shard` of the full checkpoint `full` into an engine of
/// its own and feed it one UER of bank `key` stamped with the engine clock,
/// on this thread: whatever the restored state makes the record path throw
/// surfaces here instead of on a shard worker.
void ObserveOneRecordAtClock(const World& w, const std::string& full,
                             std::uint64_t shard, std::uint64_t key) {
  core::PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                                w.double_or_null());
  std::string_view frame = EngineFrame(full, shard);
  engine.CommitState(engine.ParseState(frame));
  hbm::AddressCodec codec(w.topology);
  const auto& records = w.fleet.log.records();
  const auto of_bank =
      std::find_if(records.begin(), records.end(), [&](const auto& r) {
        return codec.BankKey(r.address) == key;
      });
  ASSERT_NE(of_bank, records.end()) << "bank " << key;
  trace::MceRecord record = *of_bank;
  record.type = hbm::ErrorType::kUer;
  record.time_s = engine.now();
  engine.Observe(record);
}

TEST(Durability, CorruptShardBehindValidChecksumsNeverHalfRestores) {
  // A bank the payload parser refuses, deep inside the LAST shard's section
  // of a member whose CRCs all check out: by then the earlier shards have
  // parsed cleanly. The strong restore guarantee says none of them may
  // have committed.
  const World& w = SharedWorld();
  const std::size_t depth = w.classifier.extractor().max_uers();
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    const std::string mangled =
        ReframeShard(donor, kShardCount - 1, [&](std::string& engine) {
          engine[LocateFirstBlobFields(engine, depth).bank_class] = 7;
        });
    FleetServer victim = MakeTortureVictim(w, donor);
    const std::string victim_before = Checkpoint(victim);
    EXPECT_THROW(ApplyDonor(victim, donor, mangled), ParseError);
    EXPECT_EQ(Checkpoint(victim), victim_before);
  }
}

TEST(Durability, ProfileOfAnotherTruncationDepthIsRefused) {
  // A bank whose profile was accumulated at another classification depth
  // must not restore: its next classification would throw a
  // ContractViolation on a shard worker. The bank-blob decoder refuses it
  // with a ParseError naming both depths, for fulls and deltas, and the
  // target keeps its state.
  const World& w = SharedWorld();
  const std::size_t depth = w.classifier.extractor().max_uers();
  ASSERT_NE(depth, 2u);
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    const std::string mangled =
        ReframeShard(donor, kShardCount - 1, [&](std::string& engine) {
          const std::size_t at = LocateFirstBlobFields(engine, depth).max_uers;
          // Both depths are one-byte varints, so the blob keeps its length.
          std::string depth_two;
          persist::BinaryWriter(depth_two).Var(2);
          ASSERT_EQ(depth_two.size(), 1u);
          engine.replace(at, depth_two.size(), depth_two);
        });
    FleetServer victim = MakeTortureVictim(w, donor);
    const std::string victim_before = Checkpoint(victim);
    try {
      ApplyDonor(victim, donor, mangled);
      ADD_FAILURE() << "restored a depth-2 profile";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("truncation depth 2"), std::string::npos) << what;
      EXPECT_NE(what.find("depth " + std::to_string(depth)),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(Checkpoint(victim), victim_before);
  }
}

TEST(Durability, ProfileNewerThanTheEngineClockIsRefused) {
  // A profile whose last event is past its payload's clock, or NaN, would
  // let the bank's next record through the skew gate (which drops only
  // records older than the clock) into BankProfile::Observe's
  // non-decreasing-time check, which throws on a shard worker. The
  // bank-blob decoder refuses it, for fulls and deltas, and the target keeps
  // its state. A NaN takes more than one
  // changed byte, so the single-byte blob mutants below never make one.
  const World& w = SharedWorld();
  const std::size_t depth = w.classifier.extractor().max_uers();
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    for (const bool nan : {false, true}) {
      const std::string mangled =
          ReframeShard(donor, kShardCount - 1, [&](std::string& engine) {
            const double last_time =
                nan ? std::numeric_limits<double>::quiet_NaN()
                    : std::nextafter(HeaderClock(engine),
                                     std::numeric_limits<double>::infinity());
            std::string bits;
            persist::BinaryWriter(bits).F64(last_time);
            engine.replace(LocateFirstBlobFields(engine, depth).last_time,
                           bits.size(), bits);
          });
      FleetServer victim = MakeTortureVictim(w, donor);
      const std::string victim_before = Checkpoint(victim);
      const char* what = nan ? "NaN" : "one ulp past the clock";
      try {
        ApplyDonor(victim, donor, mangled);
        ADD_FAILURE() << "restored a last event time " << what;
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("past the engine clock"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(Checkpoint(victim), victim_before) << what;
    }
  }
}

/// Payload offsets of the counts of one bank blob: the Cordial state's
/// uer_events_seen and classified flag, then the profile's event count,
/// accepted UERs, capped flag, its live and frozen views' CE counts (the
/// UEO count is the next byte while counts are one-byte varints) and UER
/// counts, and its cross-row UER count. The blob is read with the codec's
/// own primitives in the order the engine and BankProfile::SaveBinary
/// write it; a format change that moves these fields makes the test's
/// consistent forgery fail to restore.
struct ViewCountFields {
  std::size_t uer_events_seen = 0;
  std::size_t classified = 0;
  std::size_t events = 0;
  std::size_t accepted = 0;
  std::size_t capped = 0;
  std::size_t live_ces = 0;
  std::size_t live_uers = 0;
  std::size_t frozen_ces = 0;
  std::size_t frozen_uers = 0;
  std::size_t crossrow_uers = 0;
};

void SkipMaskedF64(persist::BinaryReader& in) {
  in.Bytes(8 * static_cast<std::size_t>(std::popcount(in.Var())));
}

/// Skip the five DiffChains of an accumulator.
void SkipChains(persist::BinaryReader& in) {
  for (int chain = 0; chain < 5; ++chain) {
    in.Var();
    in.Bool();
    SkipMaskedF64(in);
  }
}

/// Skip one classification accumulator up to its distinct UER rows;
/// returns the offset, in `in`, of its UER count.
std::size_t SkipClassFields(persist::BinaryReader& in) {
  in.Var();  // CEs
  in.Var();  // UEOs
  const std::size_t uers = in.position();
  in.Var();
  SkipMaskedF64(in);
  in.Bool();
  in.Var();
  in.Var();
  SkipChains(in);
  return uers;
}

/// Skip one classification accumulator; returns the offset, in `in`, of
/// its UER count.
std::size_t SkipClassAccumulator(persist::BinaryReader& in) {
  const std::size_t uers = SkipClassFields(in);
  in.AscendingU32();
  return uers;
}

ViewCountFields LocateViewCounts(std::string_view engine_payload,
                                 const BlobSpan& span) {
  persist::BinaryReader in(engine_payload.substr(span.offset, span.length),
                           "bank blob");
  ViewCountFields at;
  at.uer_events_seen = span.offset + in.position();
  in.Var();
  in.Var();  // anchors used
  at.classified = span.offset + in.position();
  in.Bool();
  in.U8();         // failure class
  in.VarSigned();  // last anchor row
  in.Var();        // truncation depth
  at.events = span.offset + in.position();
  in.Var();
  at.accepted = span.offset + in.position();
  in.Var();
  at.capped = span.offset + in.position();
  in.Bool();
  SkipMaskedF64(in);  // last event time, cutoff
  at.live_ces = span.offset + in.position();
  at.live_uers = span.offset + SkipClassAccumulator(in);
  at.frozen_ces = span.offset + in.position();
  at.frozen_uers = span.offset + SkipClassAccumulator(in);
  in.Var();  // CEs
  in.Var();  // UEOs
  at.crossrow_uers = span.offset + in.position();
  return at;
}

/// One DiffChain, read and written as BankProfile::SaveBinary writes it.
core::DiffChain ReadChain(persist::BinaryReader& in) {
  core::DiffChain chain;
  chain.count = static_cast<std::size_t>(in.Var());
  chain.has_last = in.Bool();
  in.MaskedF64({&chain.sum, &chain.min, &chain.max, &chain.last});
  return chain;
}

void WriteChain(persist::BinaryWriter& out, const core::DiffChain& chain) {
  out.Var(chain.count);
  out.Bool(chain.has_last);
  out.MaskedF64({chain.sum, chain.min, chain.max, chain.last});
}

/// One classification accumulator, read and written as
/// BankProfile::SaveBinary writes it.
core::ClassAccumulator ReadClassView(persist::BinaryReader& in) {
  core::ClassAccumulator acc;
  acc.ce_total = static_cast<std::size_t>(in.Var());
  acc.ueo_total = static_cast<std::size_t>(in.Var());
  acc.uer_events = static_cast<std::size_t>(in.Var());
  in.MaskedF64({&acc.ce_row_min, &acc.ce_row_max, &acc.ueo_row_min,
                &acc.ueo_row_max, &acc.uer_row_min, &acc.uer_row_max,
                &acc.first_uer_time, &acc.last_uer_time,
                &acc.ce_before_first_uer, &acc.ueo_before_first_uer,
                &acc.last_time});
  acc.any_event = in.Bool();
  acc.ce_at_last_time = static_cast<std::size_t>(in.Var());
  acc.ueo_at_last_time = static_cast<std::size_t>(in.Var());
  for (core::DiffChain* chain : {&acc.uer_row_diff, &acc.all_row_diff,
                                 &acc.ce_dt, &acc.ueo_dt, &acc.uer_dt}) {
    *chain = ReadChain(in);
  }
  acc.distinct_uer_rows = in.AscendingU32();
  return acc;
}

void WriteClassView(persist::BinaryWriter& out,
                    const core::ClassAccumulator& acc) {
  out.Var(acc.ce_total);
  out.Var(acc.ueo_total);
  out.Var(acc.uer_events);
  out.MaskedF64({acc.ce_row_min, acc.ce_row_max, acc.ueo_row_min,
                 acc.ueo_row_max, acc.uer_row_min, acc.uer_row_max,
                 acc.first_uer_time, acc.last_uer_time,
                 acc.ce_before_first_uer, acc.ueo_before_first_uer,
                 acc.last_time});
  out.Bool(acc.any_event);
  out.Var(acc.ce_at_last_time);
  out.Var(acc.ueo_at_last_time);
  for (const core::DiffChain* chain : {&acc.uer_row_diff, &acc.all_row_diff,
                                       &acc.ce_dt, &acc.ueo_dt, &acc.uer_dt}) {
    WriteChain(out, *chain);
  }
  out.AscendingU32(acc.distinct_uer_rows);
}

/// A bank blob cut at the fields the row-set and chain tests rewrite: both
/// classification views whole, and the cross-row view's counts, UER row
/// extrema, first UER time, chains and row sets. Every other byte is kept
/// verbatim, so Bytes() re-encodes an untouched blob exactly.
struct ForgedBlob {
  std::string head;  ///< Cordial state and the profile's head
  core::ClassAccumulator live, frozen;
  std::uint64_t ce = 0, ueo = 0, uer = 0, all = 0;
  double uer_row_min = 0.0, uer_row_max = 0.0, first_uer_time = 0.0,
         last_event_time = 0.0;
  core::DiffChain uer_row_diff, all_row_diff, ce_dt, ueo_dt, uer_dt;
  std::vector<std::uint32_t> ce_rows, ueo_rows, uer_rows;
  std::string ledger;  ///< the ledger flags and rows

  explicit ForgedBlob(std::string_view blob) {
    persist::BinaryReader in(blob, "forged blob");
    in.Var();           // uer_events_seen
    in.Var();           // anchors used
    in.Bool();          // classified
    in.U8();            // failure class
    in.VarSigned();     // last anchor row
    in.Var();           // truncation depth
    in.Var();           // events
    in.Var();           // accepted UERs
    in.Bool();          // capped
    SkipMaskedF64(in);  // last event time, cutoff
    head = std::string(blob.substr(0, in.position()));
    live = ReadClassView(in);
    frozen = ReadClassView(in);
    ce = in.Var();
    ueo = in.Var();
    uer = in.Var();
    all = in.Var();
    in.MaskedF64(
        {&uer_row_min, &uer_row_max, &first_uer_time, &last_event_time});
    for (core::DiffChain* chain :
         {&uer_row_diff, &all_row_diff, &ce_dt, &ueo_dt, &uer_dt}) {
      *chain = ReadChain(in);
    }
    ce_rows = in.AscendingU32();
    ueo_rows = in.AscendingU32();
    uer_rows = in.AscendingU32();
    ledger = std::string(blob.substr(in.position()));
  }

  std::string Bytes() const {
    std::string bytes = head;
    persist::BinaryWriter out(bytes);
    WriteClassView(out, live);
    WriteClassView(out, frozen);
    out.Var(ce);
    out.Var(ueo);
    out.Var(uer);
    out.Var(all);
    out.MaskedF64({uer_row_min, uer_row_max, first_uer_time, last_event_time});
    for (const core::DiffChain* chain :
         {&uer_row_diff, &all_row_diff, &ce_dt, &ueo_dt, &uer_dt}) {
      WriteChain(out, *chain);
    }
    out.AscendingU32(ce_rows);
    out.AscendingU32(ueo_rows);
    out.AscendingU32(uer_rows);
    out.Bytes(ledger);
    return bytes;
  }
};

/// Replace the blob at `span` of an engine payload with `bytes`, patching
/// its u32 length.
void ReplaceBlob(std::string& engine, const BlobSpan& span,
                 const std::string& bytes) {
  engine.replace(span.offset, span.length, bytes);
  std::string length;
  persist::BinaryWriter(length).U32(static_cast<std::uint32_t>(bytes.size()));
  engine.replace(span.offset - 4, length.size(), length);
}

/// Forge the first bank of an engine payload, a bank that has seen no UER,
/// into a classified bank whose view is capped at `depth` UERs with every
/// count and chain agreeing: the Cordial state and the accepted count say
/// `depth` UERs, the profile's event count grows by `depth`, and `depth`
/// UERs on row 0 at the bank's last event time go through
/// ClassAccumulator::Absorb into the live view, which the frozen view then
/// copies, and through the cross-row view's counts, chains and row set as
/// CrossRowAccumulator::Absorb takes them. Returns the offsets of the
/// forged blob's view counts.
ViewCountFields ForgeCappedView(std::string& engine, char depth) {
  const std::vector<BlobSpan> blobs = BankBlobs(engine);
  EXPECT_FALSE(blobs.empty());
  if (blobs.empty()) return {};
  const ViewCountFields at = LocateViewCounts(engine, blobs.front());
  // One-byte varints, all 0 in a bank without a UER.
  for (const std::size_t count : {at.uer_events_seen, at.accepted}) {
    EXPECT_EQ(engine[count], 0);
    engine[count] = depth;
  }
  EXPECT_LT(engine[at.events] + depth, 0x80)
      << "the event count must stay a one-byte varint";
  engine[at.events] = static_cast<char>(engine[at.events] + depth);
  engine[at.classified] = 1;
  engine[at.capped] = 1;
  ForgedBlob blob(std::string_view(engine).substr(blobs.front().offset,
                                                  blobs.front().length));
  EXPECT_EQ(blob.uer, 0u);
  trace::MceRecord uer;
  uer.type = hbm::ErrorType::kUer;
  uer.address.row = 0;
  uer.time_s = blob.last_event_time;
  for (char i = 0; i < depth; ++i) {
    blob.live.Absorb(uer);
    blob.uer_row_diff.Push(0.0);
    blob.all_row_diff.Push(0.0);
    blob.uer_dt.Push(uer.time_s);
  }
  blob.frozen = blob.live;
  EXPECT_LT(blob.all + static_cast<std::uint64_t>(depth), 0x80u)
      << "all_count must stay a one-byte varint";
  blob.uer = static_cast<std::uint64_t>(depth);
  blob.all += blob.uer;
  blob.uer_rows = {0};
  blob.first_uer_time = uer.time_s;
  ReplaceBlob(engine, blobs.front(), blob.Bytes());
  return LocateViewCounts(engine, BankBlobs(engine).front());
}

/// Re-frame `donor` after rewriting the last shard's first bank: forged
/// into a capped view first when `capped` (ForgeCappedView), then edited.
std::string RewriteFirstBlob(const TortureDonor& donor, bool capped,
                             char depth,
                             const std::function<void(ForgedBlob&)>& edit) {
  return ReframeShard(donor, kShardCount - 1, [&](std::string& engine) {
    if (capped) ForgeCappedView(engine, depth);
    const BlobSpan first = BankBlobs(engine).front();
    ForgedBlob blob(std::string_view(engine).substr(first.offset, first.length));
    if (edit) edit(blob);
    ReplaceBlob(engine, first, blob.Bytes());
  });
}

TEST(Durability, ClassificationViewContradictingItsCountsIsRefused) {
  // A classification view whose counts disagree passes every structural
  // check, and the bank's next UER then reads it: a capped bank with
  // `classified` cleared and an empty frozen view throws a
  // ContractViolation in the classification extractor, which on a shard
  // worker ends the daemon. The bank-blob decoder refuses each
  // contradiction with a ParseError naming the field, for fulls and
  // deltas, and the target keeps its state.
  //
  // The donors' banks have seen no UER, so the test first forges the last
  // shard's first bank into a classified bank whose view is capped at the
  // depth, every count agreeing (ForgeCappedView), and checks that this
  // restores. Each case then contradicts that forgery in one count.
  const World& w = SharedWorld();
  const auto depth = static_cast<char>(w.classifier.extractor().max_uers());
  const struct {
    const char* refusal;  ///< what the ParseError must say
    std::function<void(std::string&, const ViewCountFields&)> contradict;
  } cases[] = {
      {"!= min(cross-row UERs",
       [&](std::string& e, const ViewCountFields& f) {
         e[f.accepted] = static_cast<char>(depth - 1);
       }},
      {"uncapped at",
       [](std::string& e, const ViewCountFields& f) { e[f.capped] = 0; }},
      {"live classification view holds",
       [&](std::string& e, const ViewCountFields& f) {
         e[f.live_uers] = static_cast<char>(depth - 1);
       }},
      {"frozen classification view holds 0 UERs",
       [](std::string& e, const ViewCountFields& f) {
         e[f.classified] = 0;
         e[f.frozen_uers] = 0;
       }},
      {"uer_events_seen",
       [&](std::string& e, const ViewCountFields& f) {
         e[f.uer_events_seen] = static_cast<char>(depth + 1);
       }},
      // Every Observe counts its record in the profile's events and the
      // cross-row all_count, and every record a view absorbs went through
      // the cross-row view first. The forged view's CE and UEO counts
      // equal the cross-row ones, so one more is one too many.
      {"profile events",
       [](std::string& e, const ViewCountFields& f) { --e[f.events]; }},
      {"live classification view ce_total",
       [](std::string& e, const ViewCountFields& f) { ++e[f.live_ces]; }},
      {"live classification view ueo_total",
       [](std::string& e, const ViewCountFields& f) { ++e[f.live_ces + 1]; }},
      {"frozen classification view ce_total",
       [](std::string& e, const ViewCountFields& f) { ++e[f.frozen_ces]; }},
      {"frozen classification view ueo_total",
       [](std::string& e, const ViewCountFields& f) {
         ++e[f.frozen_ces + 1];
       }},
  };
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    const auto forge = [&](const std::function<void(
                               std::string&, const ViewCountFields&)>& then) {
      return ReframeShard(donor, kShardCount - 1, [&](std::string& engine) {
        const ViewCountFields at = ForgeCappedView(engine, depth);
        if (then) then(engine, at);
      });
    };
    {
      FleetServer victim = MakeTortureVictim(w, donor);
      EXPECT_NO_THROW(ApplyDonor(victim, donor, forge({})))
          << "the consistent forgery must restore";
    }
    for (const auto& c : cases) {
      SCOPED_TRACE(c.refusal);
      const std::string mangled = forge(c.contradict);
      FleetServer victim = MakeTortureVictim(w, donor);
      const std::string victim_before = Checkpoint(victim);
      try {
        ApplyDonor(victim, donor, mangled);
        ADD_FAILURE() << "restored a view that contradicts its counts";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(c.refusal), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(Checkpoint(victim), victim_before);
    }
  }
}

TEST(Durability, CrossRowCountsContradictingRowSetsAreRefused) {
  // CrossRowAccumulator::Absorb counts every record once in all_count and
  // once in its type's count, and adds its row to its type's row set; the
  // UER row extrema are the UER set's ends, and before the first UER the
  // extrema and the first UER time stay +0.0. A blob that breaks one of
  // these passes every structural check and restores a bank whose features
  // no feed could produce. The bank-blob decoder refuses each with a
  // ParseError naming the field, for fulls and deltas, and the target
  // keeps its state. The cases rewrite the last shard's first bank, which
  // has seen no UER; the last one first forges it into a capped view
  // (ForgeCappedView) and then gives a view a UER row the cross-row view
  // lacks.
  const World& w = SharedWorld();
  const auto depth = static_cast<char>(w.classifier.extractor().max_uers());
  const auto one_uer = [](ForgedBlob& b, std::vector<std::uint32_t> rows,
                          double min, double max) {
    b.uer = 1;
    ++b.all;
    b.uer_rows = std::move(rows);
    b.uer_row_min = min;
    b.uer_row_max = max;
  };
  const auto rows_up_to = [](std::uint64_t n) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 1; r <= n; ++r) rows.push_back(r);
    return rows;
  };
  const struct {
    const char* refusal;  ///< what the ParseError must say
    std::function<void(ForgedBlob&)> contradict;
    bool capped = false;  ///< forge a capped view first
  } cases[] = {
      {"cross-row all_count", [](ForgedBlob& b) { ++b.all; }},
      {"cross-row ce_rows",
       [&](ForgedBlob& b) { b.ce_rows = rows_up_to(b.ce + 1); }},
      {"cross-row ueo_rows",
       [&](ForgedBlob& b) { b.ueo_rows = rows_up_to(b.ueo + 1); }},
      {"cross-row uer_rows holds 0 row(s) for uer_count 1",
       [&](ForgedBlob& b) { one_uer(b, {}, 0.0, 0.0); }},
      {"cross-row uer_rows holds 2 row(s) for uer_count 1",
       [&](ForgedBlob& b) { one_uer(b, {3, 4}, 3.0, 4.0); }},
      {"cross-row uer_row_min",
       [&](ForgedBlob& b) { one_uer(b, {3}, 2.0, 3.0); }},
      {"cross-row uer_row_max",
       [&](ForgedBlob& b) { one_uer(b, {3}, 3.0, 4.0); }},
      {"cross-row uer_row_min", [](ForgedBlob& b) { b.uer_row_min = 1.0; }},
      {"cross-row uer_row_min", [](ForgedBlob& b) { b.uer_row_min = -0.0; }},
      {"cross-row uer_row_max", [](ForgedBlob& b) { b.uer_row_max = 1.0; }},
      {"cross-row first_uer_time",
       [](ForgedBlob& b) { b.first_uer_time = 1.0; }},
      {"live classification view's distinct_uer_rows",
       [](ForgedBlob& b) { b.live.distinct_uer_rows = {7}; }, true},
      {"frozen classification view's distinct_uer_rows",
       [](ForgedBlob& b) { b.frozen.distinct_uer_rows = {0, 7}; }, true},
  };
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    const auto rewrite = [&](bool capped,
                             const std::function<void(ForgedBlob&)>& edit) {
      return RewriteFirstBlob(donor, capped, depth, edit);
    };
    for (const bool capped : {false, true}) {
      const std::string untouched = rewrite(capped, {});
      if (!capped) {
        EXPECT_EQ(untouched, donor.bytes);
      }
      FleetServer victim = MakeTortureVictim(w, donor);
      EXPECT_NO_THROW(ApplyDonor(victim, donor, untouched))
          << (capped ? "the capped forgery" : "the re-encoded blob")
          << " must restore";
    }
    for (const auto& c : cases) {
      SCOPED_TRACE(c.refusal);
      const std::string mangled = rewrite(c.capped, c.contradict);
      FleetServer victim = MakeTortureVictim(w, donor);
      const std::string victim_before = Checkpoint(victim);
      try {
        ApplyDonor(victim, donor, mangled);
        ADD_FAILURE() << "restored counts that contradict their row sets";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(c.refusal), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(Checkpoint(victim), victim_before);
    }
  }
}

TEST(Durability, DiffChainsContradictingTheirCountsAreRefused) {
  // DiffChain::Push counts a difference from its second push on, so a chain
  // fed n > 0 events holds count n - 1 with has_last set, and one fed none
  // holds count 0 with has_last clear; sum, min and max stay +0.0 until the
  // first difference and last until the first push; min never exceeds max
  // (rows are u32 and the ingest refuses non-finite timestamps, so no
  // difference is NaN). Each cross-row chain is fed by all_count or its
  // type's count, each classification view's by that view's totals, and a
  // view's UER row extrema are the ends of its distinct UER rows. A blob
  // that breaks one of these passes every structural check and restores
  // features no feed could produce. The bank-blob decoder refuses each with
  // a ParseError naming the field, for fulls and deltas, and the target
  // keeps its state. Capped cases forge the last shard's first bank into a
  // view capped at the depth first (ForgeCappedView), so every chain has
  // been fed; the others leave that bank without a UER, so its UER chains
  // have been fed nothing.
  const World& w = SharedWorld();
  const auto depth = static_cast<char>(w.classifier.extractor().max_uers());
  using Chain = core::DiffChain ForgedBlob::*;
  using ViewChain = core::DiffChain core::ClassAccumulator::*;
  const std::pair<const char*, Chain> crossrow_chains[] = {
      {"uer_row_diff", &ForgedBlob::uer_row_diff},
      {"all_row_diff", &ForgedBlob::all_row_diff},
      {"ce_dt", &ForgedBlob::ce_dt},
      {"ueo_dt", &ForgedBlob::ueo_dt},
      {"uer_dt", &ForgedBlob::uer_dt}};
  const std::pair<const char*, ViewChain> view_chains[] = {
      {"uer_row_diff", &core::ClassAccumulator::uer_row_diff},
      {"all_row_diff", &core::ClassAccumulator::all_row_diff},
      {"ce_dt", &core::ClassAccumulator::ce_dt},
      {"ueo_dt", &core::ClassAccumulator::ueo_dt},
      {"uer_dt", &core::ClassAccumulator::uer_dt}};
  struct Case {
    std::string refusal;  ///< what the ParseError must say
    std::function<void(ForgedBlob&)> contradict;
    bool capped = false;  ///< forge a capped view first
  };
  std::vector<Case> cases;
  // count: every chain of every view, against the count that feeds it.
  for (const auto& [name, chain] : crossrow_chains) {
    cases.push_back({std::string("cross-row ") + name + " holds count",
                     [chain](ForgedBlob& b) { ++(b.*chain).count; }, true});
  }
  for (const auto& [name, chain] : view_chains) {
    cases.push_back({std::string("live classification view ") + name +
                         " holds count",
                     [chain](ForgedBlob& b) { ++(b.live.*chain).count; },
                     true});
    cases.push_back({std::string("frozen classification view ") + name +
                         " holds count",
                     [chain](ForgedBlob& b) { ++(b.frozen.*chain).count; },
                     true});
  }
  // has_last: cleared on a fed chain, set on an unfed one.
  cases.push_back({"cross-row uer_dt holds count 2 without has_last",
                   [](ForgedBlob& b) { b.uer_dt.has_last = false; }, true});
  cases.push_back({"live classification view uer_row_diff holds count 2 "
                   "without has_last",
                   [](ForgedBlob& b) { b.live.uer_row_diff.has_last = false; },
                   true});
  cases.push_back({"cross-row uer_row_diff holds count 0 with has_last",
                   [](ForgedBlob& b) { b.uer_row_diff.has_last = true; }});
  // sum, min, max and last of a chain fed nothing.
  cases.push_back({"cross-row uer_dt sum 1.000000 with count 0",
                   [](ForgedBlob& b) { b.uer_dt.sum = 1.0; }});
  cases.push_back({"cross-row uer_dt min 1.000000 with count 0",
                   [](ForgedBlob& b) {
                     b.uer_dt.min = 1.0;
                     b.uer_dt.max = 1.0;
                   }});
  cases.push_back({"cross-row uer_row_diff max 1.000000 with count 0",
                   [](ForgedBlob& b) { b.uer_row_diff.max = 1.0; }});
  cases.push_back({"cross-row uer_row_diff last 1.000000 without has_last",
                   [](ForgedBlob& b) { b.uer_row_diff.last = 1.0; }});
  // min above max.
  cases.push_back({"cross-row uer_dt min 1.000000 > max 0.000000",
                   [](ForgedBlob& b) { b.uer_dt.min = 1.0; }, true});
  cases.push_back({"frozen classification view uer_row_diff min 1.000000 > "
                   "max 0.000000",
                   [](ForgedBlob& b) { b.frozen.uer_row_diff.min = 1.0; },
                   true});
  // A classification view's UER row extrema against its distinct rows.
  cases.push_back({"live classification view uer_row_min 1.000000 is not "
                   "0.000000, the end of distinct_uer_rows",
                   [](ForgedBlob& b) { b.live.uer_row_min = 1.0; }, true});
  cases.push_back({"frozen classification view uer_row_max 1.000000 is not "
                   "0.000000, the end of distinct_uer_rows",
                   [](ForgedBlob& b) { b.frozen.uer_row_max = 1.0; }, true});

  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    for (const bool capped : {false, true}) {
      FleetServer victim = MakeTortureVictim(w, donor);
      EXPECT_NO_THROW(
          ApplyDonor(victim, donor, RewriteFirstBlob(donor, capped, depth, {})))
          << (capped ? "the capped forgery" : "the re-encoded blob")
          << " must restore";
    }
    for (const Case& c : cases) {
      SCOPED_TRACE(c.refusal);
      const std::string mangled =
          RewriteFirstBlob(donor, c.capped, depth, c.contradict);
      FleetServer victim = MakeTortureVictim(w, donor);
      const std::string victim_before = Checkpoint(victim);
      try {
        ApplyDonor(victim, donor, mangled);
        ADD_FAILURE() << "restored a chain that contradicts its counts";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(c.refusal), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(Checkpoint(victim), victim_before);
    }
  }
}

TEST(Durability, SingleByteBlobMutantsFailClosedOrDecodeCanonically) {
  // Behind valid CRCs the bank-blob decoder is the only line of defence.
  // Every byte of every bank blob of the 2-shard full and delta donors is
  // zeroed (0xFF if it already is zero), then replaced by a seeded random
  // value, and the member re-framed. A mutant either fails closed —
  // ParseError, victim untouched — or decodes; the decoder never throws a
  // ContractViolation or bad_alloc. One that decodes re-encodes to exactly
  // its own bytes, since the decoder accepts only what the encoder writes:
  // a full restores to the mutant member, and the re-saved blob of a
  // mutated delta bank equals the mutated blob. And the state it decoded
  // to takes the bank's next record at the engine clock without a
  // ContractViolation, which on a shard worker would end the daemon.
  const World& w = SharedWorld();
  std::mt19937_64 rng(20251017);
  std::size_t refused = 0;
  std::size_t decoded = 0;
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    FleetServer victim = MakeTortureVictim(w, donor);
    const std::string victim_before = Checkpoint(victim);
    std::string_view in(donor.bytes);
    std::string_view payload = ReadFramedView(
        in, donor.delta ? kFleetDeltaMagic : kFleetCheckpointMagic,
        donor.delta ? kFleetDeltaVersion : kFleetCheckpointVersion);
    const std::uint64_t shards = TakeShardCount(payload, "test");
    for (std::uint64_t shard = 0; shard < shards; ++shard) {
      const std::string engine(ReadFramedView(
          payload,
          donor.delta ? core::kEngineDeltaMagic : core::kEngineStateMagic,
          donor.delta ? core::kEngineDeltaVersion
                      : core::kEngineStateVersion));
      for (const BlobSpan& blob : BankBlobs(engine)) {
        for (std::size_t i = 0; i < blob.length; ++i) {
          const std::size_t at = blob.offset + i;
          const char zeroed = engine[at] == 0 ? '\xff' : '\0';
          const auto random = static_cast<char>(
              engine[at] ^ static_cast<char>(1 + rng() % 255));
          for (const char value : {zeroed, random}) {
            std::string mutated_engine;
            const std::string mutant =
                ReframeShard(donor, shard, [&](std::string& e) {
                  e[at] = value;
                  mutated_engine = e;
                });
            const std::string where = "shard " + std::to_string(shard) +
                                      " bank " + std::to_string(blob.key) +
                                      " byte " + std::to_string(i);
            try {
              ApplyDonor(victim, donor, mutant);
            } catch (const ParseError&) {
              ++refused;
              ASSERT_EQ(Checkpoint(victim), victim_before) << where;
              continue;
            } catch (const std::exception& e) {
              FAIL() << where << ": " << e.what();
            }
            ++decoded;
            const std::string resaved = Checkpoint(victim);
            if (!donor.delta) {
              EXPECT_EQ(resaved, mutant) << where;
            } else {
              EXPECT_EQ(BlobBytes(resaved, shard, blob.key),
                        mutated_engine.substr(blob.offset, blob.length))
                  << where;
            }
            try {
              ObserveOneRecordAtClock(w, resaved, shard, blob.key);
            } catch (const std::exception& e) {
              FAIL() << where << ", next record: " << e.what();
            }
            victim.RestoreCheckpoint(victim_before);
          }
        }
      }
    }
  }
  std::printf("blob mutants: %zu refused, %zu decoded\n", refused, decoded);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST(Durability, WriteFailuresUnlinkTmpAndPreserveOldCheckpoint) {
  // The durable write under every chain member and manifest, fed a fleet
  // checkpoint: a failure at any step before the rename leaves no tmp
  // file and the previous checkpoint byte-identical and restorable.
  const World& w = SharedWorld();
  const std::string path = ::testing::TempDir() + "cordial_durability3.ckpt";
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }

  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 16);
  const std::string old_state = Checkpoint(writer);
  WriteFileDurably(path, old_state, /*retain_prev=*/true);
  Feed(writer, w, 16, 32);  // new state the failing writes will try to save
  const std::string new_state = Checkpoint(writer);
  ASSERT_NE(new_state, old_state);

  std::string on_disk;
  for (const char* point : {"serve.checkpoint.open", "serve.checkpoint.write",
                            "serve.checkpoint.fsync",
                            "serve.checkpoint.rename"}) {
    SCOPED_TRACE(point);
    failpoint::Arm(point);
    EXPECT_THROW(WriteFileDurably(path, new_state, /*retain_prev=*/true),
                 ContractViolation);
    EXPECT_GT(failpoint::HitCount(point), 0u);  // the site was really hit
    failpoint::Disarm(point);
    // No debris, old checkpoint byte-identical.
    EXPECT_FALSE(ReadFileBytes(path + ".tmp", on_disk));
    ASSERT_TRUE(ReadFileBytes(path, on_disk));
    EXPECT_EQ(on_disk, old_state);
  }
  failpoint::DisarmAll();

  // The surviving file still restores to the old state.
  FleetServer restored = MakeServer(w);
  restored.RestoreCheckpoint(on_disk);
  EXPECT_EQ(Checkpoint(restored), old_state);

  // With nothing armed the same write goes through.
  WriteFileDurably(path, new_state, /*retain_prev=*/true);
  writer.Stop();
  ASSERT_TRUE(ReadFileBytes(path, on_disk));
  EXPECT_EQ(on_disk, new_state);
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }
}

}  // namespace
}  // namespace cordial::serve
