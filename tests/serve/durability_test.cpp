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
#include <array>
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

/// The five chains of a cross-row or classification view, in blob order.
template <typename View>
auto Chains(View& v) {
  return std::array{&v.uer_row_diff, &v.all_row_diff, &v.ce_dt, &v.ueo_dt,
                    &v.uer_dt};
}

void ReadChain(persist::BinaryReader& in, core::DiffChain& chain) {
  in.MaskedF64({&chain.sum, &chain.min, &chain.max, &chain.last});
}

void WriteChain(persist::BinaryWriter& out, const core::DiffChain& chain) {
  out.MaskedF64({chain.sum, chain.min, chain.max, chain.last});
}

/// One bank blob, read field by field with the codec's own primitives in
/// the order the engine and BankProfile::SaveBinary write it: the Cordial
/// state, the profile's depth and cross-row view, then the two
/// same-timestamp counters before the bank's first UER or its
/// classification view after it, and the ledger flags and rows, kept
/// verbatim. Every forgery below rewrites these fields and re-encodes them
/// with Bytes(), which writes an untouched blob back exactly; a format
/// change that moves a field breaks that round trip, which
/// ExpectForgeriesRefused checks first. A chain's pushes are its view's
/// counts, which DiffChain::Push takes as an argument.
struct ForgedBlob {
  std::uint64_t anchors_used = 0;
  bool classified = false;
  std::uint8_t bank_class = 0;
  std::int64_t last_anchor_row = 0;
  std::uint64_t depth = 0;
  std::uint64_t ce = 0, ueo = 0, uer = 0;
  double first_uer_time = 0.0, last_event_time = 0.0;
  core::DiffChain uer_row_diff, all_row_diff, ce_dt, ueo_dt, uer_dt;
  std::vector<std::uint32_t> ce_rows, ueo_rows, uer_rows;
  std::uint64_t ce_at_last_time = 0, ueo_at_last_time = 0;  ///< if uer == 0
  /// If uer > 0: the blob's fields of the classification view.
  core::ClassAccumulator view;
  std::string ledger;

  explicit ForgedBlob(std::string_view blob) {
    persist::BinaryReader in(blob, "forged blob");
    anchors_used = in.Var();
    classified = in.Bool();
    bank_class = in.U8();
    last_anchor_row = in.VarSigned();
    depth = in.Var();
    ce = in.Var();
    ueo = in.Var();
    uer = in.Var();
    in.MaskedF64({&first_uer_time, &last_event_time});
    for (core::DiffChain* chain : Chains(*this)) ReadChain(in, *chain);
    ce_rows = in.AscendingU32();
    ueo_rows = in.AscendingU32();
    uer_rows = in.AscendingU32();
    if (uer == 0) {
      ce_at_last_time = in.Var();
      ueo_at_last_time = in.Var();
    } else {
      view.ce_total = in.Var();
      view.ueo_total = in.Var();
      in.MaskedF64({&view.ce_row_min, &view.ce_row_max, &view.ueo_row_min,
                    &view.ueo_row_max, &view.last_uer_time,
                    &view.ce_before_first_uer, &view.ueo_before_first_uer});
      for (core::DiffChain* chain : Chains(view)) ReadChain(in, *chain);
      view.distinct_uer_rows = in.AscendingU32();
    }
    ledger = std::string(blob.substr(in.position()));
  }

  std::string Bytes() const {
    std::string bytes;
    persist::BinaryWriter out(bytes);
    out.Var(anchors_used);
    out.Bool(classified);
    out.U8(bank_class);
    out.VarSigned(last_anchor_row);
    out.Var(depth);
    out.Var(ce);
    out.Var(ueo);
    out.Var(uer);
    out.MaskedF64({first_uer_time, last_event_time});
    for (const core::DiffChain* chain : Chains(*this)) WriteChain(out, *chain);
    out.AscendingU32(ce_rows);
    out.AscendingU32(ueo_rows);
    out.AscendingU32(uer_rows);
    if (uer == 0) {
      out.Var(ce_at_last_time);
      out.Var(ueo_at_last_time);
    } else {
      out.Var(view.ce_total);
      out.Var(view.ueo_total);
      out.MaskedF64({view.ce_row_min, view.ce_row_max, view.ueo_row_min,
                     view.ueo_row_max, view.last_uer_time,
                     view.ce_before_first_uer, view.ueo_before_first_uer});
      for (const core::DiffChain* chain : Chains(view)) {
        WriteChain(out, *chain);
      }
      out.AscendingU32(view.distinct_uer_rows);
    }
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

/// Rewrite the first bank blob of an engine payload through `edit`.
void EditFirstBlob(std::string& engine,
                   const std::function<void(ForgedBlob&)>& edit) {
  const std::vector<BlobSpan> blobs = BankBlobs(engine);
  ASSERT_FALSE(blobs.empty()) << "shard section holds no bank";
  const BlobSpan& first = blobs.front();
  ForgedBlob blob(std::string_view(engine).substr(first.offset, first.length));
  if (edit) edit(blob);
  ReplaceBlob(engine, first, blob.Bytes());
}

/// Re-frame `donor` after rewriting the last shard's first bank through
/// `edit`.
std::string EditDonorFirstBlob(const TortureDonor& donor,
                               const std::function<void(ForgedBlob&)>& edit) {
  return ReframeShard(donor, kShardCount - 1,
                      [&](std::string& engine) { EditFirstBlob(engine, edit); });
}

/// The engine clock of an engine payload (full or delta): the last field of
/// its header.
double HeaderClock(std::string_view engine_payload) {
  persist::BinaryReader reader(engine_payload, "test");
  const std::uint32_t header_len = reader.U32();
  reader.Bytes(header_len - 8);
  return reader.F64();
}

/// The accepted-record count of an engine payload (full or delta): the
/// first field of its header.
std::uint64_t HeaderEvents(std::string_view engine_payload) {
  persist::BinaryReader reader(engine_payload, "test");
  reader.U32();
  return reader.U64();
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
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    const std::string mangled =
        EditDonorFirstBlob(donor, [](ForgedBlob& b) { b.bank_class = 7; });
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
        EditDonorFirstBlob(donor, [](ForgedBlob& b) { b.depth = 2; });
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
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    for (const bool nan : {false, true}) {
      const std::string mangled =
          ReframeShard(donor, kShardCount - 1, [&](std::string& engine) {
            const double last_time =
                nan ? std::numeric_limits<double>::quiet_NaN()
                    : std::nextafter(HeaderClock(engine),
                                     std::numeric_limits<double>::infinity());
            EditFirstBlob(engine, [&](ForgedBlob& b) {
              b.last_event_time = last_time;
            });
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

/// Forge a bank that has seen no UER into a classified bank whose view is
/// capped at `depth` UERs, every field agreeing: `depth` UERs on row 0 at
/// the bank's last event time go through the cross-row counts, chains, row
/// set and first UER time as BankProfile::Observe takes them, and the view
/// is the cross-row view at the last of them, whose densities leave out the
/// CEs and UEOs tied with the first.
void ForgeCappedView(ForgedBlob& blob, std::size_t depth) {
  ASSERT_EQ(blob.uer, 0u) << "the forged bank must start without a UER";
  const double t = blob.last_event_time;
  for (std::size_t i = 0; i < depth; ++i) {
    blob.uer_row_diff.Push(0.0, i);
    blob.all_row_diff.Push(0.0, blob.ce + blob.ueo + i);
    blob.uer_dt.Push(t, i);
  }
  blob.uer = depth;
  blob.uer_rows = {0};
  blob.first_uer_time = t;
  blob.classified = true;
  core::ClassAccumulator& view = blob.view;
  view.ce_total = blob.ce;
  view.ueo_total = blob.ueo;
  if (!blob.ce_rows.empty()) {
    view.ce_row_min = blob.ce_rows.front();
    view.ce_row_max = blob.ce_rows.back();
  }
  if (!blob.ueo_rows.empty()) {
    view.ueo_row_min = blob.ueo_rows.front();
    view.ueo_row_max = blob.ueo_rows.back();
  }
  view.last_uer_time = t;
  view.ce_before_first_uer =
      static_cast<double>(blob.ce - blob.ce_at_last_time);
  view.ueo_before_first_uer =
      static_cast<double>(blob.ueo - blob.ueo_at_last_time);
  view.uer_row_diff = blob.uer_row_diff;
  view.all_row_diff = blob.all_row_diff;
  view.ce_dt = blob.ce_dt;
  view.ueo_dt = blob.ueo_dt;
  view.uer_dt = blob.uer_dt;
  view.distinct_uer_rows = {0};
}

/// Re-frame `donor` after rewriting the last shard's first bank: forged
/// into a view capped at `depth` first when `capped` (ForgeCappedView),
/// then edited.
std::string RewriteFirstBlob(const TortureDonor& donor, bool capped,
                             std::size_t depth,
                             const std::function<void(ForgedBlob&)>& edit) {
  return EditDonorFirstBlob(donor, [&](ForgedBlob& blob) {
    if (capped) ForgeCappedView(blob, depth);
    if (edit) edit(blob);
  });
}

/// A forgery the bank-blob decoder must refuse: what its ParseError must
/// say, the edit, and whether the bank is forged into a capped view first.
struct RefusedForgery {
  std::string refusal;
  std::function<void(ForgedBlob&)> contradict;
  bool capped = false;
};

/// For each donor: the untouched blob re-encodes to the donor's bytes, it
/// and its capped forgery restore, and every case is refused with its
/// message and leaves the target's state as it was.
void ExpectForgeriesRefused(const std::vector<RefusedForgery>& cases) {
  const World& w = SharedWorld();
  const std::size_t depth = w.classifier.extractor().max_uers();
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    for (const bool capped : {false, true}) {
      const std::string untouched = RewriteFirstBlob(donor, capped, depth, {});
      if (!capped) {
        EXPECT_EQ(untouched, donor.bytes);
      }
      FleetServer victim = MakeTortureVictim(w, donor);
      EXPECT_NO_THROW(ApplyDonor(victim, donor, untouched))
          << (capped ? "the capped forgery" : "the re-encoded blob")
          << " must restore";
    }
    for (const RefusedForgery& c : cases) {
      SCOPED_TRACE(c.refusal);
      const std::string mangled =
          RewriteFirstBlob(donor, c.capped, depth, c.contradict);
      FleetServer victim = MakeTortureVictim(w, donor);
      const std::string victim_before = Checkpoint(victim);
      try {
        ApplyDonor(victim, donor, mangled);
        ADD_FAILURE() << "restored a forgery";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(c.refusal), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(Checkpoint(victim), victim_before);
    }
  }
}

TEST(Durability, ClassificationViewContradictingItsCountsIsRefused) {
  // A classification view or a same-timestamp counter whose count exceeds
  // the cross-row count it is part of passes every structural check, and
  // the bank's next classification reads it. Every record the view holds
  // went through the cross-row view first, and the counters count some of
  // the CEs and UEOs at the newest timestamp. The forged view's CE and UEO
  // counts equal the cross-row ones, so one more is one too many; the
  // donors' first bank has seen no UER, so its counters are written.
  ExpectForgeriesRefused({
      {"classification view ce_total",
       [](ForgedBlob& b) { ++b.view.ce_total; }, true},
      {"classification view ueo_total",
       [](ForgedBlob& b) { ++b.view.ueo_total; }, true},
      {"same-timestamp CEs",
       [](ForgedBlob& b) { b.ce_at_last_time = b.ce + 1; }},
      {"same-timestamp UEOs",
       [](ForgedBlob& b) { b.ueo_at_last_time = b.ueo + 1; }},
  });
}

TEST(Durability, CrossRowCountsContradictingRowSetsAreRefused) {
  // BankProfile::Observe adds every record's row to its type's row
  // set, and before the first UER the first UER time stays +0.0; the sum of
  // the type counts is all_count, and no bank counts more records than its
  // engine accepted. A blob that breaks one of these passes every
  // structural check and restores a bank whose features no feed could
  // produce: a CE count of nearly 2^64 beside a few CE rows wraps all_count
  // to 0 at the bank's next record. The last cases forge a capped view
  // first and give it a UER row the cross-row view lacks.
  const auto rows_up_to = [](std::uint64_t n) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 1; r <= n; ++r) rows.push_back(r);
    return rows;
  };
  ExpectForgeriesRefused({
      {"overflows all_count",
       [](ForgedBlob& b) {
         b.ce = std::numeric_limits<std::uint64_t>::max();
         b.ueo = b.ce;
       }},
      {"events, more than the engine's",
       [](ForgedBlob& b) {
         b.ce = std::numeric_limits<std::uint64_t>::max() - b.ueo - b.uer;
       }},
      {"cross-row ce_rows",
       [&](ForgedBlob& b) { b.ce_rows = rows_up_to(b.ce + 1); }},
      {"cross-row ueo_rows",
       [&](ForgedBlob& b) { b.ueo_rows = rows_up_to(b.ueo + 1); }},
      {"cross-row uer_rows holds 0 row(s) for uer_count 1",
       [](ForgedBlob& b) { b.uer = 1; }},
      {"cross-row uer_rows holds 2 row(s) for uer_count 1",
       [](ForgedBlob& b) {
         b.uer = 1;
         b.uer_rows = {3, 4};
       }},
      {"cross-row first_uer_time",
       [](ForgedBlob& b) { b.first_uer_time = 1.0; }},
      {"classification view's distinct_uer_rows",
       [](ForgedBlob& b) { b.view.distinct_uer_rows = {7}; }, true},
      {"classification view's distinct_uer_rows",
       [](ForgedBlob& b) { b.view.distinct_uer_rows = {0, 7}; }, true},
  });
  // The bound is the header's accepted-record count itself: a bank may
  // hold every record its engine accepted, and not one more.
  const World& w = SharedWorld();
  for (const TortureDonor& donor : TortureDonors()) {
    SCOPED_TRACE(donor.name);
    for (const std::uint64_t extra : {0, 1}) {
      const std::string forged =
          ReframeShard(donor, kShardCount - 1, [&](std::string& engine) {
            const std::uint64_t events = HeaderEvents(engine);
            EditFirstBlob(engine, [&](ForgedBlob& b) {
              b.ce = events + extra - b.ueo - b.uer;
            });
          });
      FleetServer victim = MakeTortureVictim(w, donor);
      if (extra == 0) {
        EXPECT_NO_THROW(ApplyDonor(victim, donor, forged));
        continue;
      }
      const std::string victim_before = Checkpoint(victim);
      try {
        ApplyDonor(victim, donor, forged);
        ADD_FAILURE() << "restored a bank with one event too many";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("more than the engine's"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(Checkpoint(victim), victim_before);
    }
  }
}

TEST(Durability, DiffChainsContradictingTheirCountsAreRefused) {
  // DiffChain::Push leaves sum, min and max at +0.0 until the chain's first
  // difference and last until its first push, and min never exceeds max
  // (rows are u32 and the ingest refuses non-finite timestamps, so no
  // difference is NaN). A chain's pushes are its view's counts, which the
  // decoder reads first. A blob that breaks one of these passes every
  // structural check and restores features no feed could produce. The
  // donors' first bank has seen no UER, so its UER chains have been fed
  // nothing; the capped cases forge a view capped at the depth first, so
  // every chain has been fed.
  ExpectForgeriesRefused({
      {"cross-row uer_dt sum 1.000000 with count 0",
       [](ForgedBlob& b) { b.uer_dt.sum = 1.0; }},
      {"cross-row uer_dt min 1.000000 with count 0",
       [](ForgedBlob& b) {
         b.uer_dt.min = 1.0;
         b.uer_dt.max = 1.0;
       }},
      {"cross-row uer_row_diff max 1.000000 with count 0",
       [](ForgedBlob& b) { b.uer_row_diff.max = 1.0; }},
      {"cross-row uer_row_diff last 1.000000 without has_last",
       [](ForgedBlob& b) { b.uer_row_diff.last = 1.0; }},
      {"cross-row uer_dt min 1.000000 > max 0.000000",
       [](ForgedBlob& b) { b.uer_dt.min = 1.0; }, true},
      {"classification view uer_row_diff min 1.000000 > max 0.000000",
       [](ForgedBlob& b) { b.view.uer_row_diff.min = 1.0; }, true},
  });
}

TEST(Durability, CordialStateBeforeTheFirstUerIsRefused) {
  // StepCordial advances a bank's Cordial state only on its UERs, so a bank
  // that has seen none holds the default state, and the engine keeps no
  // state for it to hold anything else in. A blob that gives such a bank
  // anchors, a classification or an anchor row passes every structural
  // check; the decoder refuses it, naming the field. The donors' first bank
  // has seen no UER; its capped forgery, which has, restores classified.
  ExpectForgeriesRefused({
      {"Cordial state anchors_used 1 before the bank's first UER",
       [](ForgedBlob& b) { b.anchors_used = 1; }},
      {"Cordial state classified true before the bank's first UER",
       [](ForgedBlob& b) { b.classified = true; }},
      {"Cordial state bank_class 0 before the bank's first UER",
       [](ForgedBlob& b) { b.bank_class = 0; }},
      {"Cordial state last_anchor_row 7 before the bank's first UER",
       [](ForgedBlob& b) { b.last_anchor_row = 7; }},
  });
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
