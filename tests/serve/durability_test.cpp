// Durability torture: a checkpoint file mangled in ANY way — every byte
// prefix truncation, every single-bit flip — must either restore
// bit-identically or fail closed with ParseError and an untouched server,
// never UB, bad_alloc, or a half-restored engine. Plus the crash-safe
// write path (failpoint-driven syscall failures, power-cut death test) and
// the boot-time quarantine/fallback policy.
#include "serve/checkpoint.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/framing.hpp"
#include "core/persist.hpp"
#include "hbm/address.hpp"
#include "serve/fleet_server.hpp"
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
  std::ostringstream out;
  server.SaveCheckpoint(out);
  return out.str();
}

std::string BinaryCheckpoint(const FleetServer& server) {
  std::ostringstream out;
  server.SaveCheckpoint(out, core::StateEncoding::kBinary);
  return out.str();
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

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Re-frame `payload` the way pre-CRC builds did: no crc32 header field.
std::string LegacyFrame(const std::string& magic, std::uint32_t version,
                        const std::string& payload) {
  std::ostringstream out;
  out << magic << " v" << version << ' ' << payload.size() << '\n' << payload;
  return out.str();
}

/// Rebuild a current checkpoint as a bit-identical-payload legacy file:
/// strip the crc32 field from the outer frame AND the nested per-shard
/// engine frames (that is exactly what an old build wrote).
std::string RebuildAsLegacy(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  std::istringstream payload(
      ReadFramed(in, kFleetCheckpointMagic, kFleetCheckpointVersion));
  ExpectToken(payload, "shards");
  const std::uint64_t shard_count = ReadU64Token(payload, "legacy rebuild");
  std::ostringstream legacy_payload;
  legacy_payload << "shards " << shard_count << '\n';
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    legacy_payload << LegacyFrame(
        core::kEngineStateMagic, core::kEngineStateVersion,
        ReadFramed(payload, core::kEngineStateMagic,
                   core::kEngineStateVersion));
  }
  return LegacyFrame(kFleetCheckpointMagic, kFleetCheckpointVersion,
                     legacy_payload.str());
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
/// a delta applies over `base`) and the text checkpoint a pristine apply
/// must leave. The text full is the original donor; the binary full and the
/// delta put the in-place binary reader through the same loops.
struct TortureDonor {
  const char* name;
  std::string bytes;
  bool delta = false;
  std::string base;      ///< delta only: the full its victim starts from
  std::string expected;  ///< the victim's text checkpoint after applying
};

const std::vector<TortureDonor>& TortureDonors() {
  static const std::vector<TortureDonor>* donors = [] {
    const World& w = SharedWorld();
    FleetServer donor = MakeServer(w);
    donor.Start();
    Feed(donor, w, 0, 12);
    const std::string base = BinaryCheckpoint(donor);
    donor.MarkCheckpointClean();
    Feed(donor, w, 12, 24);
    donor.Stop();
    std::ostringstream delta;
    donor.SaveDeltaCheckpoint(delta);
    const std::string expected = Checkpoint(donor);
    return new std::vector<TortureDonor>{
        {"text full", DonorCheckpoint(), false, "", DonorCheckpoint()},
        {"binary full", BinaryCheckpoint(donor), false, "", expected},
        {"delta", delta.str(), true, base, expected},
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

/// The two ways a member reaches the parsers: as a view (what the file
/// readers and chain recovery pass) and through the stream adapters.
enum class Entry { kView, kStream };
constexpr Entry kEntries[] = {Entry::kView, Entry::kStream};

const char* EntryName(Entry entry) {
  return entry == Entry::kView ? "view" : "stream";
}

void ApplyDonor(FleetServer& victim, const TortureDonor& donor,
                std::string_view bytes, Entry entry = Entry::kView) {
  if (entry == Entry::kStream) {
    std::istringstream in{std::string(bytes)};
    if (donor.delta) {
      victim.ApplyDeltaCheckpoint(in);
    } else {
      victim.RestoreCheckpoint(in);
    }
  } else if (donor.delta) {
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
  std::istringstream in(bytes);
  restored.RestoreCheckpoint(in);
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
      for (const Entry entry : kEntries) {
        EXPECT_THROW(ApplyDonor(victim, donor, prefix, entry), ParseError)
            << "prefix of " << len << " bytes via " << EntryName(entry);
      }
      // Checking the full state every iteration would square the cost
      // again; sample it, plus the first and last prefixes.
      if (len % 64 == 0 || len + 1 == bytes.size()) {
        ASSERT_EQ(Checkpoint(victim), victim_before) << "prefix " << len;
      }
    }
    // The victim still accepts the pristine member afterwards.
    ApplyDonor(victim, donor, bytes);
    EXPECT_EQ(Checkpoint(victim), donor.expected);
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
        for (const Entry entry : kEntries) {
          EXPECT_THROW(ApplyDonor(victim, donor, mangled, entry), ParseError)
              << "byte " << byte << " bit " << bit << " via "
              << EntryName(entry);
        }
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

TEST(Durability, LegacyChecksumlessCheckpointRestoresWithCount) {
  const World& w = SharedWorld();
  const std::string& bytes = DonorCheckpoint();
  const std::string legacy = RebuildAsLegacy(bytes);
  ASSERT_EQ(legacy.find("crc32="), std::string::npos);

  const std::uint64_t legacy_before = GetFramingStats().legacy_frames_read;
  FleetServer restored = MakeServer(w);
  std::istringstream in(legacy);
  restored.RestoreCheckpoint(in);
  // Same state as the checksummed original...
  EXPECT_EQ(Checkpoint(restored), bytes);
  // ...and every checksum-less frame (outer + one per shard) was tallied.
  EXPECT_EQ(GetFramingStats().legacy_frames_read,
            legacy_before + 1 + kShardCount);
}

TEST(Durability, CorruptShardInLegacyCheckpointNeverHalfRestores) {
  // With no CRC, a legacy file's corruption is only caught by the token
  // parser, possibly deep inside the LAST shard's section — by which point
  // the earlier shards have already parsed cleanly. The strong restore
  // guarantee says none of them may have committed.
  const World& w = SharedWorld();
  std::string legacy = RebuildAsLegacy(DonorCheckpoint());
  // Corrupt a digit in the last tenth of the file (inside the final shard's
  // token stream) without changing any byte counts.
  bool corrupted = false;
  for (std::size_t i = legacy.size() - 1; i > legacy.size() * 9 / 10; --i) {
    if (legacy[i] >= '0' && legacy[i] <= '9') {
      legacy[i] = 'x';
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "no digit found to corrupt";

  FleetServer victim = MakeVictim(w);
  const std::string victim_before = Checkpoint(victim);
  std::istringstream in(legacy);
  EXPECT_THROW(victim.RestoreCheckpoint(in), ParseError);
  EXPECT_EQ(Checkpoint(victim), victim_before);
}

TEST(Durability, RecoverFallsBackToPreviousGenerationAndQuarantines) {
  const World& w = SharedWorld();
  const std::string path = ::testing::TempDir() + "cordial_durability.ckpt";
  for (const char* suffix : {"", ".prev", ".corrupt", ".prev.corrupt"}) {
    std::remove((path + suffix).c_str());
  }

  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 16);
  WriteCheckpointFile(writer, path);  // generation 1
  const std::string gen1 = Checkpoint(writer);
  Feed(writer, w, 16, 32);
  WriteCheckpointFile(writer, path);  // generation 2; gen 1 becomes .prev
  writer.Stop();
  ASSERT_TRUE(FileExists(path + ".prev"));
  ASSERT_EQ(FileBytes(path + ".prev"), gen1);

  // Bit-rot the newest generation.
  std::string mangled = FileBytes(path);
  mangled[mangled.size() - 5] = static_cast<char>(mangled[mangled.size() - 5] ^ 0x04);
  WriteBytes(path, mangled);

  FleetServer recovered = MakeServer(w);
  const RecoveryOutcome outcome = RecoverCheckpoint(recovered, path);
  EXPECT_EQ(outcome.restored_from, path + ".prev");
  EXPECT_TRUE(outcome.fell_back());
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined[0], path + ".corrupt");
  ASSERT_EQ(outcome.errors.size(), 1u);
  EXPECT_NE(outcome.errors[0].find("checksum"), std::string::npos)
      << outcome.errors[0];
  // The bad file moved aside for post-mortem; the server holds gen 1.
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  EXPECT_EQ(Checkpoint(recovered), gen1);

  for (const char* suffix : {"", ".prev", ".corrupt", ".prev.corrupt"}) {
    std::remove((path + suffix).c_str());
  }
}

TEST(Durability, RecoverStartsFreshWhenEveryCandidateIsCorrupt) {
  const World& w = SharedWorld();
  const std::string path = ::testing::TempDir() + "cordial_durability2.ckpt";
  for (const char* suffix : {"", ".prev", ".corrupt", ".prev.corrupt"}) {
    std::remove((path + suffix).c_str());
  }
  WriteBytes(path, "cordial_fleet_checkpoint v1 9999\ntruncated");
  WriteBytes(path + ".prev", "garbage, not a frame");

  FleetServer recovered = MakeServer(w);
  const std::string fresh_state = Checkpoint(recovered);
  const RecoveryOutcome outcome = RecoverCheckpoint(recovered, path);
  EXPECT_EQ(outcome.restored_from, "");
  EXPECT_TRUE(outcome.fell_back());
  ASSERT_EQ(outcome.quarantined.size(), 2u);
  EXPECT_EQ(outcome.quarantined[0], path + ".corrupt");
  EXPECT_EQ(outcome.quarantined[1], path + ".prev.corrupt");
  EXPECT_EQ(outcome.errors.size(), 2u);
  EXPECT_EQ(Checkpoint(recovered), fresh_state);  // untouched: fresh start

  // Nothing to recover at all: clean fresh start, nothing quarantined.
  for (const char* suffix : {"", ".prev", ".corrupt", ".prev.corrupt"}) {
    std::remove((path + suffix).c_str());
  }
  const RecoveryOutcome empty = RecoverCheckpoint(recovered, path);
  EXPECT_EQ(empty.restored_from, "");
  EXPECT_FALSE(empty.fell_back());
  EXPECT_TRUE(empty.quarantined.empty());

  // A directory at the path opens but is no checkpoint: it is quarantined
  // like any corrupt candidate, never sized by seeking to its end.
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  EXPECT_THROW(ReadCheckpointFile(recovered, path), ParseError);
  const RecoveryOutcome directory = RecoverCheckpoint(recovered, path);
  EXPECT_EQ(directory.restored_from, "");
  ASSERT_EQ(directory.quarantined.size(), 1u);
  EXPECT_EQ(directory.quarantined[0], path + ".corrupt");
  EXPECT_EQ(Checkpoint(recovered), fresh_state);
  ::rmdir((path + ".corrupt").c_str());
}

TEST(Durability, WriteFailuresUnlinkTmpAndPreserveOldCheckpoint) {
  const World& w = SharedWorld();
  const std::string path = ::testing::TempDir() + "cordial_durability3.ckpt";
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }

  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 16);
  WriteCheckpointFile(writer, path);
  const std::string old_bytes = FileBytes(path);
  Feed(writer, w, 16, 32);  // new state the failing writes will try to save

  for (const char* point : {"serve.checkpoint.open", "serve.checkpoint.write",
                            "serve.checkpoint.fsync",
                            "serve.checkpoint.rename"}) {
    failpoint::Arm(point);
    EXPECT_THROW(WriteCheckpointFile(writer, path), ContractViolation)
        << point;
    EXPECT_GT(failpoint::HitCount(point), 0u) << point;  // site really hit
    failpoint::Disarm(point);
    // No debris, old checkpoint byte-identical.
    EXPECT_FALSE(FileExists(path + ".tmp")) << point;
    EXPECT_EQ(FileBytes(path), old_bytes) << point;
  }
  failpoint::DisarmAll();

  // With nothing armed the same write goes through, and reports its size.
  const std::uint64_t written = WriteCheckpointFile(writer, path);
  writer.Stop();
  EXPECT_NE(FileBytes(path), old_bytes);
  EXPECT_EQ(written, FileBytes(path).size());
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }
}

TEST(Durability, DirsyncFailureThrowsButNewCheckpointIsInPlace) {
  // By the time the directory fsync runs the rename has happened: the new
  // checkpoint is valid and must NOT be rolled back — the error only means
  // its directory entry might not survive a power cut yet.
  const World& w = SharedWorld();
  const std::string path = ::testing::TempDir() + "cordial_durability4.ckpt";
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }
  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 16);
  writer.Stop();
  const std::string expected = Checkpoint(writer);

  failpoint::Arm("serve.checkpoint.dirsync");
  EXPECT_THROW(WriteCheckpointFile(writer, path), ContractViolation);
  failpoint::DisarmAll();
  EXPECT_EQ(FileBytes(path), expected);
  EXPECT_FALSE(FileExists(path + ".tmp"));

  FleetServer reader = MakeServer(w);
  ASSERT_TRUE(ReadCheckpointFile(reader, path));
  EXPECT_EQ(Checkpoint(reader), expected);
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }
}

TEST(Durability, PowerCutBeforeRenameLeavesOldCheckpointRestorable) {
  // Simulated power cut via ::_exit inside the (forked) death-test child:
  // the tmp file is durable but unpublished, the old checkpoint still owns
  // the real name, and recovery comes up from it.
  const World& w = SharedWorld();
  const std::string path = ::testing::TempDir() + "cordial_durability5.ckpt";
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }
  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 16);
  WriteCheckpointFile(writer, path);
  const std::string old_bytes = FileBytes(path);
  Feed(writer, w, 16, 32);
  writer.Stop();

  failpoint::Arm("serve.checkpoint.crash_before_rename");
  EXPECT_EXIT(WriteCheckpointFile(writer, path),
              ::testing::ExitedWithCode(121), "");
  failpoint::DisarmAll();

  // The crash left the fully-written tmp file behind (it was fsync'd before
  // the cut) and never touched the published checkpoint.
  EXPECT_TRUE(FileExists(path + ".tmp"));
  EXPECT_EQ(FileBytes(path), old_bytes);

  FleetServer recovered = MakeServer(w);
  const RecoveryOutcome outcome = RecoverCheckpoint(recovered, path);
  EXPECT_EQ(outcome.restored_from, path);
  EXPECT_FALSE(outcome.fell_back());
  EXPECT_EQ(Checkpoint(recovered), old_bytes);
  for (const char* suffix : {"", ".tmp", ".prev"}) {
    std::remove((path + suffix).c_str());
  }
}

}  // namespace
}  // namespace cordial::serve
