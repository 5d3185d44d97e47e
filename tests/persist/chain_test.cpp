// Checkpoint-chain torture: a chain (binary full + dirty-bank deltas under
// a CRC manifest) must recover byte-identically to an uninterrupted
// reference, and corruption ANYWHERE — every byte-prefix truncation and
// every single-bit flip of every member — must fail closed to the newest
// intact prefix, quarantining exactly the damaged member by name. Plus the
// write/compaction policy, failed-write atomicity (failpoints, a power-cut
// death test), manifest fallback, scan rescue, fresh starts, the directory
// contract, and the offline fold/compaction tools.
#include "persist/chain.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/framing.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet_server.hpp"
#include "support/fnv1a.hpp"
#include "support/reframe.hpp"
#include "support/serve_world.hpp"

namespace cordial::persist {
namespace {

using serve::FleetServer;
using serve::test_support::SharedWorld;
using serve::test_support::World;
using test_support::Fnv1a;

constexpr std::size_t kShardCount = 2;

FleetServer MakeServer(const World& w) {
  serve::FleetServerConfig config;
  config.shard_count = kShardCount;
  return FleetServer(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
}

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

/// Fresh scratch directory per test; files are wiped between torture
/// iterations via ResetDir.
class ScratchDir {
 public:
  ScratchDir() {
    char templ[] = "/tmp/cordial_chain_XXXXXX";
    CORDIAL_CHECK_MSG(::mkdtemp(templ) != nullptr, "mkdtemp failed");
    path_ = templ;
  }
  ~ScratchDir() {
    // Best-effort cleanup; scratch contents are tiny.
    Clear();
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

  /// Remove every regular file in the directory.
  void Clear() {
    std::vector<std::string> names = List();
    for (const std::string& name : names) ::unlink(File(name).c_str());
  }

  std::vector<std::string> List() const {
    std::vector<std::string> names;
    DIR* dir = ::opendir(path_.c_str());
    if (dir == nullptr) return names;
    while (dirent* ent = ::readdir(dir)) {
      const std::string name = ent->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(dir);
    return names;
  }

  /// Reset the directory to exactly `files` (name -> bytes).
  void Reset(const std::map<std::string, std::string>& files) {
    Clear();
    for (const auto& [name, bytes] : files) WriteBytes(File(name), bytes);
  }

 private:
  std::string path_;
};

/// Snapshot every file in `dir` (name -> bytes).
std::map<std::string, std::string> SnapshotDir(const ScratchDir& dir) {
  std::map<std::string, std::string> files;
  for (const std::string& name : dir.List()) {
    files[name] = FileBytes(dir.File(name));
  }
  return files;
}

/// Build a small chain: a full at record `first_full`, then one delta per
/// `step` records until `total`. Returns the expected checkpoint at every
/// member boundary: expected[k] = state with members 0..k-1 applied
/// (expected[0] = fresh server).
std::vector<std::string> BuildChain(const World& w, ScratchDir& dir,
                                    std::size_t first_full, std::size_t step,
                                    std::size_t total,
                                    std::size_t compact_every = 64) {
  FleetServer writer = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), compact_every});
  std::vector<std::string> expected;
  expected.push_back(Checkpoint(writer));  // nothing applied
  writer.Start();
  Feed(writer, w, 0, first_full);
  writer.Drain();
  ChainWriteResult result = chain.Write(writer);
  EXPECT_TRUE(result.full);
  expected.push_back(Checkpoint(writer));
  for (std::size_t at = first_full; at < total; at += step) {
    Feed(writer, w, at, at + step);
    writer.Drain();
    result = chain.Write(writer);
    EXPECT_FALSE(result.full);
    expected.push_back(Checkpoint(writer));
  }
  writer.Stop();
  return expected;
}

// --- write + compaction policy -------------------------------------------

TEST(ChainWrite, FullThenDeltasThenCompactionFold) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), /*compact_every=*/3});
  server.Start();

  Feed(server, w, 0, 20);
  server.Drain();
  ChainWriteResult result = chain.Write(server);
  EXPECT_TRUE(result.full);
  EXPECT_EQ(chain.epoch(), 1u);
  EXPECT_EQ(chain.chain_length(), 1u);
  EXPECT_TRUE(FileExists(dir.File("full-000001.ckpt")));
  EXPECT_TRUE(FileExists(dir.File(kManifestFileName)));
  EXPECT_EQ(server.DirtyBankCount(), 0u);

  for (std::size_t i = 1; i <= 3; ++i) {
    Feed(server, w, 20 * i, 20 * (i + 1));
    server.Drain();
    result = chain.Write(server);
    EXPECT_FALSE(result.full) << "delta " << i;
    EXPECT_EQ(chain.chain_length(), 1 + i);
  }
  EXPECT_TRUE(FileExists(dir.File("delta-000001.0003.ckpt")));

  // The 4th periodic write folds into a fresh full of a new epoch and
  // prunes the old generation.
  Feed(server, w, 80, 100);
  server.Drain();
  result = chain.Write(server);
  EXPECT_TRUE(result.full);
  EXPECT_EQ(chain.epoch(), 2u);
  EXPECT_EQ(chain.chain_length(), 1u);
  EXPECT_TRUE(FileExists(dir.File("full-000002.ckpt")));
  EXPECT_FALSE(FileExists(dir.File("full-000001.ckpt")));
  EXPECT_FALSE(FileExists(dir.File("delta-000001.0001.ckpt")));
  server.Stop();
}

TEST(ChainWrite, ManifestCrcsMatchTheirFiles) {
  // WriteFull and WriteDelta take a member's CRC-32 from the frame writer,
  // combined from its shard frames' CRCs, not from a read of the member.
  // Every entry of every manifest they persist must still be the CRC-32 and
  // size of its file: across 1 to 3 shards, fulls, deltas, an empty delta
  // and a compaction.
  const World& w = SharedWorld();
  for (const std::size_t shards : {1, 2, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    ScratchDir dir;
    serve::FleetServerConfig config;
    config.shard_count = shards;
    FleetServer server(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), config);
    CheckpointChain chain(ChainConfig{dir.path(), /*compact_every=*/3});
    server.Start();
    std::size_t fed = 0;
    for (const std::size_t step : {0, 40, 0, 200, 13, 300, 1}) {
      Feed(server, w, fed, fed + step);
      fed += step;
      server.Drain();
      chain.Write(server);
      const Manifest manifest =
          DecodeManifest(FileBytes(dir.File(kManifestFileName)));
      for (const ChainEntry& entry : manifest.entries) {
        const std::string bytes = FileBytes(dir.File(entry.file));
        EXPECT_EQ(entry.bytes, bytes.size()) << entry.file;
        EXPECT_EQ(entry.crc32, Crc32(bytes)) << entry.file;
      }
    }
    EXPECT_EQ(chain.epoch(), 2u);
    server.Stop();
  }
}

TEST(ChainWrite, ImportedShardForcesFullMember) {
  // An imported shard arrives clean, and a delta cannot drop the banks it
  // replaced: the write after an import must be a full, or recovery would
  // restore a state the server never had.
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  server.Start();
  Feed(server, w, 0, 40);
  ASSERT_TRUE(chain.Write(server).full);
  Feed(server, w, 40, 80);

  // The donor saw a later stretch of the feed, so its shard 0 holds banks
  // the server's lacks and lacks banks the server's holds.
  FleetServer donor = MakeServer(w);
  donor.Start();
  Feed(donor, w, 200, 260);
  const std::string before_import = Checkpoint(server);
  server.ImportShard(0, donor.ExportShard(0));
  donor.Stop();
  ASSERT_NE(Checkpoint(server), before_import);

  ChainWriteResult result = chain.Write(server);
  EXPECT_TRUE(result.full);
  EXPECT_EQ(chain.epoch(), 2u);
  EXPECT_EQ(chain.chain_length(), 1u);

  // With the install in a full, the chain goes back to deltas.
  Feed(server, w, 260, 300);
  result = chain.Write(server);
  EXPECT_FALSE(result.full);
  server.Stop();

  FleetServer recovered = MakeServer(w);
  CheckpointChain recovered_chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryResult outcome = recovered_chain.Recover(recovered);
  EXPECT_FALSE(outcome.fell_back);
  EXPECT_EQ(outcome.applied.size(), 2u);
  EXPECT_EQ(Checkpoint(recovered), Checkpoint(server));
}

TEST(ChainWrite, DeltaMembersAreSmallerThanFulls) {
  const World& w = SharedWorld();
  ScratchDir dir;
  BuildChain(w, dir, 60, 6, 90);
  const std::uint64_t full_bytes = FileBytes(dir.File("full-000001.ckpt")).size();
  const std::uint64_t delta_bytes =
      FileBytes(dir.File("delta-000001.0001.ckpt")).size();
  EXPECT_LT(delta_bytes, full_bytes);
}

// --- recovery: clean chains ----------------------------------------------

TEST(ChainRecovery, RestoresBitIdenticallyToUninterruptedReference) {
  const World& w = SharedWorld();
  ScratchDir dir;
  const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 120);

  FleetServer restored = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryResult outcome = chain.Recover(restored);
  EXPECT_FALSE(outcome.fresh_start());
  EXPECT_FALSE(outcome.fell_back);
  EXPECT_TRUE(outcome.quarantined.empty());
  EXPECT_EQ(outcome.applied.size(), expected.size() - 1);
  EXPECT_EQ(Checkpoint(restored), expected.back());

  // A clean recovery keeps appending to the same chain.
  restored.Start();
  Feed(restored, w, 120, 144);
  restored.Drain();
  const ChainWriteResult next = chain.Write(restored);
  EXPECT_FALSE(next.full);
  restored.Stop();
}

/// The v1 text MANIFEST an older build wrote over the first `members`
/// members of `dir`'s epoch-1 chain: one line per member with its kind,
/// epoch, seq, size, CRC-32 and file name.
std::string V1TextManifest(const ScratchDir& dir, std::size_t members) {
  std::string payload = "epoch 1\nentries " + std::to_string(members) + "\n";
  for (std::size_t seq = 0; seq < members; ++seq) {
    const std::string file =
        seq == 0 ? "full-000001.ckpt"
                 : "delta-000001.000" + std::to_string(seq) + ".ckpt";
    const std::string bytes = FileBytes(dir.File(file));
    payload += std::string(seq == 0 ? "full" : "delta") + " 1 " +
               std::to_string(seq) + ' ' + std::to_string(bytes.size()) +
               ' ' + std::to_string(Crc32(bytes)) + ' ' + file + '\n';
  }
  CloseFrame(payload, 0, kManifestMagic, 1);
  return payload;
}

TEST(ChainRecovery, ScanRescueRestoresChainWithoutManifest) {
  const World& w = SharedWorld();
  // No manifest at all, and the v1 text MANIFEST and MANIFEST.prev an
  // older build leaves (the .prev one member short): v1 fails the version
  // check, so both are quarantined and the directory scan restores the
  // whole chain.
  for (const bool older_build : {false, true}) {
    SCOPED_TRACE(older_build ? "v1 text manifests" : "no manifest");
    ScratchDir dir;
    const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 96);
    ASSERT_EQ(expected.size(), 5u);  // fresh, full, +3 deltas
    const std::string manifest = dir.File(kManifestFileName);
    ::unlink(manifest.c_str());
    ::unlink((manifest + ".prev").c_str());
    if (older_build) {
      WriteBytes(manifest, V1TextManifest(dir, 4));
      WriteBytes(manifest + ".prev", V1TextManifest(dir, 3));
    }

    FleetServer restored = MakeServer(w);
    CheckpointChain chain(ChainConfig{dir.path(), 64});
    const ChainRecoveryResult outcome = chain.Recover(restored);
    EXPECT_FALSE(outcome.fresh_start());
    EXPECT_EQ(outcome.applied.size(), 4u);
    EXPECT_EQ(Checkpoint(restored), expected.back());
    if (older_build) {
      EXPECT_EQ(outcome.quarantined,
                (std::vector<std::string>{manifest, manifest + ".prev"}));
      for (const std::string& error : outcome.errors) {
        EXPECT_NE(error.find("version mismatch — stream is v1"),
                  std::string::npos)
            << error;
      }
      EXPECT_TRUE(FileExists(manifest + ".corrupt"));
      EXPECT_TRUE(FileExists(manifest + ".prev.corrupt"));
    } else {
      EXPECT_TRUE(outcome.quarantined.empty());
    }

    // Without a usable manifest the chain is not appendable: the next
    // write starts a fresh epoch with a full.
    const ChainWriteResult next = chain.Write(restored);
    EXPECT_TRUE(next.full);
    EXPECT_EQ(chain.epoch(), 2u);
  }
}

TEST(ChainRecovery, ManifestPrevFallbackDropsUnlistedTail) {
  const World& w = SharedWorld();
  ScratchDir dir;
  const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 96);
  // Garbage primary MANIFEST; the .prev (written before the last delta) is
  // intact and describes the chain minus its newest member.
  WriteBytes(dir.File(kManifestFileName), "not a manifest at all\n");

  FleetServer restored = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryResult outcome = chain.Recover(restored);
  EXPECT_TRUE(outcome.fell_back);
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined.front(), dir.File(kManifestFileName));
  EXPECT_FALSE(outcome.fresh_start());
  // State = one member short of the uninterrupted end.
  EXPECT_EQ(Checkpoint(restored), expected[expected.size() - 2]);
}

TEST(ChainRecovery, StartsFreshWhenEveryCandidateIsCorrupt) {
  const World& w = SharedWorld();
  FleetServer recovered = MakeServer(w);
  const std::string fresh_state = Checkpoint(recovered);
  {
    // Garbage in both manifests and no member to scan for: both manifests
    // are quarantined and the server is untouched.
    ScratchDir dir;
    const std::string manifest = dir.File(kManifestFileName);
    WriteBytes(manifest, "cordial_ckpt_manifest v" +
                             std::to_string(kManifestVersion) +
                             " 9999 crc32=00000000\ntruncated");
    WriteBytes(manifest + ".prev", "garbage, not a frame");
    CheckpointChain chain(ChainConfig{dir.path(), 64});
    const ChainRecoveryResult outcome = chain.Recover(recovered);
    EXPECT_TRUE(outcome.fresh_start());
    EXPECT_TRUE(outcome.fell_back);
    EXPECT_EQ(outcome.quarantined,
              (std::vector<std::string>{manifest, manifest + ".prev"}));
    EXPECT_EQ(outcome.errors.size(), 2u);
    EXPECT_TRUE(FileExists(manifest + ".corrupt"));
    EXPECT_TRUE(FileExists(manifest + ".prev.corrupt"));
    EXPECT_EQ(Checkpoint(recovered), fresh_state);
  }
  {
    // Nothing to recover at all: a clean fresh start.
    ScratchDir dir;
    CheckpointChain chain(ChainConfig{dir.path(), 64});
    const ChainRecoveryResult outcome = chain.Recover(recovered);
    EXPECT_TRUE(outcome.fresh_start());
    EXPECT_FALSE(outcome.fell_back);
    EXPECT_TRUE(outcome.quarantined.empty());
    EXPECT_EQ(Checkpoint(recovered), fresh_state);
  }
  {
    // A directory where the manifest's full member should be opens, but is
    // no member: it is quarantined like any corrupt member, never sized by
    // seeking to its end, and the deltas left without a full restore
    // nothing.
    ScratchDir dir;
    BuildChain(w, dir, 24, 24, 72);
    const std::string full = dir.File("full-000001.ckpt");
    ASSERT_EQ(::unlink(full.c_str()), 0);
    ASSERT_EQ(::mkdir(full.c_str(), 0755), 0);
    CheckpointChain chain(ChainConfig{dir.path(), 64});
    const ChainRecoveryResult outcome = chain.Recover(recovered);
    EXPECT_TRUE(outcome.fresh_start());
    EXPECT_TRUE(outcome.fell_back);
    EXPECT_EQ(outcome.quarantined, std::vector<std::string>{full});
    EXPECT_EQ(Checkpoint(recovered), fresh_state);
    EXPECT_EQ(::rmdir((full + ".corrupt").c_str()), 0);
  }
}

TEST(ChainRecovery, PathThatIsNotADirectoryIsRefused) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  server.Start();
  Feed(server, w, 0, 24);
  server.Stop();

  // A regular file at the path, such as a single-file checkpoint, is
  // refused by name and left byte-for-byte as it was.
  const std::string file = dir.File("state.ckpt");
  const std::string bytes = Checkpoint(server);
  WriteBytes(file, bytes);
  try {
    CheckpointChain chain(ChainConfig{file, 64});
    ADD_FAILURE() << "a regular file was taken for a chain directory";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file + " exists and is not a directory"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(FileBytes(file), bytes);
  EXPECT_EQ(dir.List(), std::vector<std::string>{"state.ckpt"});

  // A missing directory is created, and recovers as a fresh start.
  const std::string created = dir.File("chain");
  {
    CheckpointChain chain(ChainConfig{created, 64});
    struct stat st;
    ASSERT_EQ(::stat(created.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    FleetServer fresh = MakeServer(w);
    const ChainRecoveryResult outcome = chain.Recover(fresh);
    EXPECT_TRUE(outcome.fresh_start());
    EXPECT_FALSE(outcome.fell_back);
  }
  EXPECT_EQ(::rmdir(created.c_str()), 0);

  // Only one level is created: a missing parent is an error.
  const std::string orphan = dir.File("missing/chain");
  EXPECT_THROW({ CheckpointChain chain(ChainConfig{orphan, 64}); },
               ContractViolation);
  EXPECT_FALSE(FileExists(dir.File("missing")));
}

// --- recovery: corrupt members -------------------------------------------

TEST(ChainRecovery, CorruptMidChainDeltaIsQuarantinedByExactName) {
  const World& w = SharedWorld();
  ScratchDir dir;
  const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 120);
  ASSERT_GE(expected.size(), 4u);  // full + at least 3 deltas

  // Flip one byte in the middle of delta #2.
  const std::string victim_file = "delta-000001.0002.ckpt";
  std::string bytes = FileBytes(dir.File(victim_file));
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteBytes(dir.File(victim_file), bytes);

  FleetServer restored = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryResult outcome = chain.Recover(restored);
  EXPECT_TRUE(outcome.fell_back);
  // Exactly the damaged member is quarantined, named in full.
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined.front(), dir.File(victim_file));
  ASSERT_EQ(outcome.errors.size(), 1u);
  EXPECT_NE(outcome.errors.front().find(victim_file), std::string::npos);
  EXPECT_TRUE(FileExists(dir.File(victim_file) + ".corrupt"));
  EXPECT_FALSE(FileExists(dir.File(victim_file)));
  // State fails closed to the newest intact prefix: full + delta 1.
  EXPECT_EQ(outcome.applied.size(), 2u);
  EXPECT_EQ(Checkpoint(restored), expected[2]);
  // The intact tail member after the break is dropped, not applied.
  EXPECT_TRUE(FileExists(dir.File("delta-000001.0003.ckpt")));

  // A damaged chain is never extended: the next write is a fresh full.
  const ChainWriteResult next = chain.Write(restored);
  EXPECT_TRUE(next.full);
  EXPECT_EQ(chain.epoch(), 2u);
}

TEST(ChainTorture, EveryTruncationAndBitFlipFailsClosedToIntactPrefix) {
  const World& w = SharedWorld();
  ScratchDir dir;
  // Tiny state on purpose: the loops below run a full directory recovery
  // per mangled byte/bit.
  const std::vector<std::string> expected = BuildChain(w, dir, 8, 4, 16);
  ASSERT_EQ(expected.size(), 4u);  // fresh, full, +delta1, +delta2
  const std::map<std::string, std::string> pristine = SnapshotDir(dir);

  const std::vector<std::string> members = {
      "full-000001.ckpt", "delta-000001.0001.ckpt", "delta-000001.0002.ckpt"};
  std::size_t chain_bytes = 0;
  for (const std::string& member : members) {
    chain_bytes += pristine.at(member).size();
  }
  ASSERT_LT(chain_bytes, 24u * 1024)
      << "chain grew too large for the O(bytes) recovery torture loops";

  FleetServer victim = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  std::size_t iterations = 0;

  const auto check_recovery = [&](std::size_t damaged_index,
                                  const std::string& detail) {
    const ChainRecoveryResult outcome = chain.Recover(victim);
    // Recovery stands at the newest intact prefix: every member before the
    // damaged one applied, nothing at or after it.
    EXPECT_EQ(outcome.applied.size(), damaged_index) << detail;
    EXPECT_TRUE(outcome.fell_back) << detail;
    if (damaged_index > 0) {
      // Sampled state check — byte-identical to the uninterrupted
      // reference at that prefix (every iteration would square the cost).
      if (iterations % 41 == 0) {
        EXPECT_EQ(Checkpoint(victim), expected[damaged_index]) << detail;
      }
    }
    ++iterations;
  };

  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::string& member = members[m];
    const std::string& bytes = pristine.at(member);
    // Every byte-prefix truncation of this member...
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      auto files = pristine;
      files[member] = bytes.substr(0, len);
      dir.Reset(files);
      check_recovery(m, member + " truncated to " + std::to_string(len) +
                            " bytes");
    }
    // ...and a single-bit flip at every byte position (the bit lane rotates
    // with the position so all eight lanes are exercised; each corruption
    // forces a full directory recovery, which is why this is per-byte
    // rather than the 8x per-bit loop the in-memory torture runs).
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      auto files = pristine;
      files[member][byte] =
          static_cast<char>(files[member][byte] ^ (1 << (byte % 8)));
      dir.Reset(files);
      check_recovery(m, member + " byte " + std::to_string(byte) + " bit " +
                            std::to_string(byte % 8));
    }
  }

  // The pristine chain still recovers in full afterwards.
  dir.Reset(pristine);
  const ChainRecoveryResult outcome = chain.Recover(victim);
  EXPECT_FALSE(outcome.fell_back);
  EXPECT_EQ(Checkpoint(victim), expected.back());
}

// --- failed writes --------------------------------------------------------

TEST(ChainWrite, FailedDeltaWriteLeavesChainAndDirtySetIntact) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  server.Start();
  Feed(server, w, 0, 30);
  ASSERT_TRUE(chain.Write(server).full);

  Feed(server, w, 30, 60);
  const std::size_t dirty_before = server.DirtyBankCount();
  ASSERT_GT(dirty_before, 0u);
  const std::map<std::string, std::string> disk_before = SnapshotDir(dir);

  // A failure at any step before the delta member is published must not
  // lose dirty banks or touch the chain: the member's tmp file is cleaned
  // up, and the manifest still describes the old chain.
  for (const char* point : {"serve.checkpoint.open", "serve.checkpoint.write",
                            "serve.checkpoint.fsync",
                            "serve.checkpoint.rename"}) {
    SCOPED_TRACE(point);
    failpoint::Arm(point);
    EXPECT_THROW(chain.Write(server), ContractViolation);
    EXPECT_GT(failpoint::HitCount(point), 0u);  // the site was really hit
    failpoint::DisarmAll();
    EXPECT_FALSE(FileExists(dir.File("delta-000001.0001.ckpt.tmp")));
    EXPECT_EQ(SnapshotDir(dir), disk_before);
    EXPECT_EQ(server.DirtyBankCount(), dirty_before);

    // The prior full is never orphaned or shadowed by the failed delta: a
    // cold recovery still lands on it.
    FleetServer probe = MakeServer(w);
    CheckpointChain probe_chain(ChainConfig{dir.path(), 64});
    const ChainRecoveryResult outcome = probe_chain.Recover(probe);
    EXPECT_FALSE(outcome.fell_back);
    EXPECT_EQ(outcome.applied.size(), 1u);
  }

  // The retry succeeds and writes the same banks.
  const ChainWriteResult retry = chain.Write(server);
  EXPECT_FALSE(retry.full);
  EXPECT_EQ(retry.banks_written, dirty_before);
  EXPECT_EQ(server.DirtyBankCount(), 0u);
  server.Stop();
}

TEST(ChainWrite, DirsyncFailureLeavesDeltaInPlaceButUnlisted) {
  // By the time the directory fsync runs, the member's rename has happened:
  // the member is complete and stays, but the manifest was never written,
  // so the member is unlisted and the dirty set is kept.
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  server.Start();
  Feed(server, w, 0, 30);
  ASSERT_TRUE(chain.Write(server).full);
  const std::string state_after_full = Checkpoint(server);
  const std::string manifest_before = FileBytes(dir.File(kManifestFileName));

  Feed(server, w, 30, 60);
  const std::size_t dirty_before = server.DirtyBankCount();
  std::string delta;
  server.AppendDeltaCheckpoint(delta);
  failpoint::Arm("serve.checkpoint.dirsync");
  EXPECT_THROW(chain.Write(server), ContractViolation);
  failpoint::DisarmAll();
  EXPECT_EQ(FileBytes(dir.File("delta-000001.0001.ckpt")), delta);
  EXPECT_FALSE(FileExists(dir.File("delta-000001.0001.ckpt.tmp")));
  EXPECT_EQ(FileBytes(dir.File(kManifestFileName)), manifest_before);
  EXPECT_EQ(server.DirtyBankCount(), dirty_before);

  // A cold recovery lands on the previous prefix: the full alone.
  FleetServer probe = MakeServer(w);
  CheckpointChain probe_chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryResult outcome = probe_chain.Recover(probe);
  EXPECT_FALSE(outcome.fell_back);
  EXPECT_EQ(outcome.applied.size(), 1u);
  EXPECT_EQ(Checkpoint(probe), state_after_full);

  // The retry rewrites the member, lists it, and completes the cycle.
  const ChainWriteResult retry = chain.Write(server);
  EXPECT_FALSE(retry.full);
  EXPECT_EQ(retry.banks_written, dirty_before);
  EXPECT_EQ(server.DirtyBankCount(), 0u);
  server.Stop();
  FleetServer recovered = MakeServer(w);
  CheckpointChain recovered_chain(ChainConfig{dir.path(), 64});
  EXPECT_EQ(recovered_chain.Recover(recovered).applied.size(), 2u);
  EXPECT_EQ(Checkpoint(recovered), Checkpoint(server));
}

TEST(ChainWrite, PowerCutBeforeDeltaRenameLeavesChainRestorable) {
  // A simulated power cut (::_exit inside the forked death-test child)
  // after the delta member's tmp file is durable but before it is
  // published: the manifest still describes the old chain, and recovery
  // comes up from it. The server is stopped first, so the fork copies no
  // running workers.
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  server.Start();
  Feed(server, w, 0, 30);
  ASSERT_TRUE(chain.Write(server).full);
  const std::string state_after_full = Checkpoint(server);
  Feed(server, w, 30, 60);
  server.Stop();
  std::string delta;
  server.AppendDeltaCheckpoint(delta);
  const std::map<std::string, std::string> disk_before = SnapshotDir(dir);

  failpoint::Arm("serve.checkpoint.crash_before_rename");
  EXPECT_EXIT(chain.Write(server), ::testing::ExitedWithCode(121), "");
  failpoint::DisarmAll();

  // The cut left the member's complete tmp file behind, and nothing else.
  std::map<std::string, std::string> disk_after = SnapshotDir(dir);
  const std::string tmp = "delta-000001.0001.ckpt.tmp";
  ASSERT_EQ(disk_after.count(tmp), 1u);
  EXPECT_EQ(disk_after[tmp], delta);
  disk_after.erase(tmp);
  EXPECT_EQ(disk_after, disk_before);

  FleetServer recovered = MakeServer(w);
  CheckpointChain recovered_chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryResult outcome = recovered_chain.Recover(recovered);
  EXPECT_FALSE(outcome.fell_back);
  EXPECT_EQ(outcome.applied.size(), 1u);
  EXPECT_EQ(Checkpoint(recovered), state_after_full);
}

TEST(ChainWrite, FailedManifestWriteKeepsPreviousManifestRestorable) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  server.Start();
  Feed(server, w, 0, 30);
  server.Drain();
  ASSERT_TRUE(chain.Write(server).full);
  const std::string state_after_full = Checkpoint(server);

  Feed(server, w, 30, 60);
  server.Drain();
  // Fail the SECOND durable write of the cycle (the manifest): the member
  // lands on disk but stays unlisted, and the dirty set is kept.
  const std::size_t dirty_before = server.DirtyBankCount();
  failpoint::Arm("serve.checkpoint.rename", /*skip=*/1);
  EXPECT_THROW(chain.Write(server), ContractViolation);
  failpoint::DisarmAll();
  EXPECT_EQ(server.DirtyBankCount(), dirty_before);

  // Cold recovery sees the old manifest: full only, no half-added delta.
  FleetServer probe = MakeServer(w);
  CheckpointChain probe_chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryResult outcome = probe_chain.Recover(probe);
  EXPECT_EQ(outcome.applied.size(), 1u);
  EXPECT_EQ(Checkpoint(probe), state_after_full);

  // The retry overwrites the unlisted member and completes the cycle.
  const ChainWriteResult retry = chain.Write(server);
  EXPECT_FALSE(retry.full);
  EXPECT_EQ(server.DirtyBankCount(), 0u);
  server.Stop();
}

// --- offline fold / inspector --------------------------------------------

TEST(ChainFold, OfflineFoldIsByteIdenticalToLiveBinaryFull) {
  const World& w = SharedWorld();
  ScratchDir dir;

  // Build the chain while tracking the uninterrupted reference state.
  FleetServer writer = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  writer.Start();
  Feed(writer, w, 0, 40);
  writer.Drain();
  chain.Write(writer);
  for (std::size_t at = 40; at < 120; at += 20) {
    Feed(writer, w, at, at + 20);
    writer.Drain();
    chain.Write(writer);
  }
  writer.Stop();
  const std::string live_full = Checkpoint(writer);

  // The model-free structural fold reproduces the live binary full save
  // byte for byte.
  EXPECT_EQ(FoldChain(dir.path()), live_full);

  // On-disk compaction folds to a new epoch whose recovery matches too.
  const ChainWriteResult compacted = CompactChainFiles(dir.path());
  EXPECT_TRUE(compacted.full);
  EXPECT_EQ(compacted.chain_length, 1u);
  EXPECT_EQ(FileBytes(compacted.file), live_full);
  EXPECT_FALSE(FileExists(dir.File("full-000001.ckpt")));

  FleetServer restored = MakeServer(w);
  CheckpointChain recovered(ChainConfig{dir.path(), 64});
  EXPECT_FALSE(recovered.Recover(restored).fresh_start());
  EXPECT_EQ(Checkpoint(restored), live_full);
}

TEST(ChainInspect, ReportsSoundChainsAndNamesCorruptMembers) {
  const World& w = SharedWorld();
  ScratchDir dir;
  BuildChain(w, dir, 24, 24, 72);

  ChainInspection report = InspectChain(dir.path());
  ASSERT_TRUE(report.has_manifest);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.members.size(), 3u);
  for (const MemberInfo& info : report.members) {
    EXPECT_TRUE(info.crc_ok) << info.entry.file;
    EXPECT_EQ(info.shard_count, kShardCount) << info.entry.file;
    EXPECT_TRUE(info.error.empty()) << info.entry.file;
  }

  // Flip a byte in one member: the report stays usable and pins the blame.
  const std::string victim_file = "delta-000001.0001.ckpt";
  std::string bytes = FileBytes(dir.File(victim_file));
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x01);
  WriteBytes(dir.File(victim_file), bytes);
  report = InspectChain(dir.path());
  EXPECT_FALSE(report.ok());
  for (const MemberInfo& info : report.members) {
    if (info.entry.file == victim_file) {
      EXPECT_FALSE(info.crc_ok);
      EXPECT_FALSE(info.error.empty());
    } else {
      EXPECT_TRUE(info.error.empty()) << info.entry.file;
    }
  }
  // A corrupt member also fails the fold loudly, naming the member.
  try {
    FoldChain(dir.path());
    FAIL() << "fold accepted a corrupt member";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(victim_file), std::string::npos);
  }
}

/// Write a chain of `full` and one `delta` under a manifest that vouches
/// for both (sizes and CRCs), whatever their contents; or, with
/// `wrong_crc_of` 0 or 1, whose record of that member has a CRC-32 one bit
/// off.
void WriteTwoMemberChain(const ScratchDir& dir, const std::string& full,
                         const std::string& delta, int wrong_crc_of = -1) {
  Manifest manifest;
  manifest.epoch = 1;
  const std::string members[] = {full, delta};
  for (std::uint64_t seq = 0; seq < 2; ++seq) {
    ChainEntry entry;
    entry.is_full = seq == 0;
    entry.epoch = 1;
    entry.seq = seq;
    entry.file = seq == 0 ? "full-000001.ckpt" : "delta-000001.0001.ckpt";
    entry.bytes = members[seq].size();
    entry.crc32 = Crc32(members[seq]) ^
                  (static_cast<int>(seq) == wrong_crc_of ? 1u : 0u);
    WriteBytes(dir.File(entry.file), members[seq]);
    manifest.entries.push_back(entry);
  }
  WriteBytes(dir.File(kManifestFileName), EncodeManifest(manifest));
}

// --- recovery: each CRC-32 check -----------------------------------------

/// Require `call` to throw a ParseError whose message contains `what`.
template <typename Call>
void ExpectParseError(Call call, const std::string& what) {
  try {
    call();
    ADD_FAILURE() << "accepted; expected a ParseError saying \"" << what
                  << "\"";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

/// `member` with one byte flipped in the middle of shard `shard`'s engine
/// payload, its fleet frame closed again over the result: the fleet's
/// CRC-32 vouches for the flip, and only the engine frame's own refuses it.
std::string WithCorruptEnginePayload(const std::string& member, bool delta,
                                     std::size_t shard) {
  const char* magic =
      delta ? serve::kFleetDeltaMagic : serve::kFleetCheckpointMagic;
  const std::uint32_t version =
      delta ? serve::kFleetDeltaVersion : serve::kFleetCheckpointVersion;
  std::string_view in(member);
  std::string payload(ReadFramedView(in, magic, version));
  std::string_view rest(payload);
  serve::TakeShardCount(rest, "test");
  const char* engine_magic =
      delta ? core::kEngineDeltaMagic : core::kEngineStateMagic;
  const std::uint32_t engine_version =
      delta ? core::kEngineDeltaVersion : core::kEngineStateVersion;
  for (std::size_t s = 0; s < shard; ++s) {
    ReadFramedView(rest, engine_magic, engine_version);
  }
  const std::string_view engine =
      ReadFramedView(rest, engine_magic, engine_version);
  const auto at =
      static_cast<std::size_t>(engine.data() - payload.data()) +
      engine.size() / 2;
  payload[at] = static_cast<char>(payload[at] ^ 0x10);
  CloseFrame(payload, 0, magic, version);
  return payload;
}

/// `member` whose frame header promises a CRC-32 one bit off.
std::string WithWrongFleetCrc(const std::string& member, bool delta) {
  const char* magic =
      delta ? serve::kFleetDeltaMagic : serve::kFleetCheckpointMagic;
  const std::uint32_t version =
      delta ? serve::kFleetDeltaVersion : serve::kFleetCheckpointVersion;
  std::string_view in(member);
  const std::string_view payload = ReadFramedView(in, magic, version);
  return FrameHeaderLine(magic, version, payload.size(),
                         Crc32(payload) ^ 1u) +
         std::string(payload);
}

TEST(ChainRecovery, EachCrcCheckRefusesItsMemberAsBefore) {
  // A restore's three CRC-32 checks — the manifest's record of the member,
  // the fleet frame's header, each engine frame's header — refuse in that
  // order, each with its own message, before any shard commits.
  const World& w = SharedWorld();
  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 60);
  const std::string full = Checkpoint(writer);
  writer.MarkCheckpointClean();
  Feed(writer, w, 60, 120);
  std::ostringstream delta_out;
  writer.SaveDeltaCheckpoint(delta_out);
  const std::string delta = delta_out.str();
  writer.Stop();

  for (const bool is_delta : {false, true}) {
    SCOPED_TRACE(is_delta ? "delta" : "full");
    const std::string& good = is_delta ? delta : full;
    const std::string engine_magic =
        is_delta ? core::kEngineDeltaMagic : core::kEngineStateMagic;
    const std::string fleet_magic =
        is_delta ? serve::kFleetDeltaMagic : serve::kFleetCheckpointMagic;
    const std::string manifest_refusal =
        std::string(is_delta ? "delta" : "full") +
        " member does not match its manifest record (size/CRC-32 mismatch)";
    std::string flipped = good;
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
    struct Case {
      const char* what;
      std::string member;
      bool wrong_manifest_crc;
      std::string recovery_refusal;  ///< through the chain's manifest
      std::string restore_refusal;   ///< handed to the server directly
    };
    const std::vector<Case> cases = {
        {"engine payload corrupt under a fleet CRC that vouches for it",
         WithCorruptEnginePayload(good, is_delta, kShardCount - 1), false,
         engine_magic + ": payload checksum mismatch",
         engine_magic + ": payload checksum mismatch"},
        {"fleet header CRC wrong", WithWrongFleetCrc(good, is_delta), false,
         fleet_magic + ": payload checksum mismatch",
         fleet_magic + ": payload checksum mismatch"},
        {"manifest CRC wrong", good, true, manifest_refusal, ""},
        {"a byte flipped, every CRC left as written", flipped, false,
         manifest_refusal, fleet_magic + ": payload checksum mismatch"},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.what);
      ScratchDir dir;
      const bool manifest_vouches = c.member != flipped;
      WriteTwoMemberChain(dir, is_delta ? full : c.member,
                          is_delta ? c.member : delta,
                          c.wrong_manifest_crc ? (is_delta ? 1 : 0) : -1);
      if (!manifest_vouches) {
        // The manifest recorded the member before its byte flipped.
        WriteTwoMemberChain(dir, full, delta);
        WriteBytes(dir.File(is_delta ? "delta-000001.0001.ckpt"
                                     : "full-000001.ckpt"),
                   c.member);
      }
      FleetServer victim = MakeServer(w);
      CheckpointChain chain(ChainConfig{dir.path(), 64});
      const ChainRecoveryResult outcome = chain.Recover(victim);
      ASSERT_EQ(outcome.errors.size(), 1u);
      EXPECT_NE(outcome.errors[0].find(c.recovery_refusal), std::string::npos)
          << outcome.errors[0];
      ASSERT_EQ(outcome.quarantined.size(), 1u);
      // Nothing of the refused member committed: a refused full leaves the
      // server fresh, a refused delta leaves it on the full.
      EXPECT_EQ(outcome.applied.size(), is_delta ? 1u : 0u);
      FleetServer expected = MakeServer(w);
      if (is_delta) expected.RestoreCheckpoint(full);
      EXPECT_EQ(Checkpoint(victim), Checkpoint(expected));

      if (c.restore_refusal.empty()) continue;
      const std::string before = Checkpoint(victim);
      ExpectParseError(
          [&] {
            if (is_delta) {
              victim.ApplyDeltaCheckpoint(c.member);
            } else {
              victim.RestoreCheckpoint(c.member);
            }
          },
          c.restore_refusal);
      EXPECT_EQ(Checkpoint(victim), before);
    }
  }
}

// --- trailing-bytes rule -------------------------------------------------

/// Re-frame a member with `extra` appended to its payload: the frame's CRC
/// vouches for the extra bytes, so only the payload parser can refuse them.
std::string ReframeWithExtra(const std::string& member, const char* magic,
                             std::uint32_t version, const std::string& extra) {
  std::string_view in(member);
  std::string payload(ReadFramedView(in, magic, version));
  payload += extra;
  CloseFrame(payload, 0, magic, version);
  return payload;
}

template <typename Call>
void ExpectTrailingBytesError(Call call, std::size_t bytes) {
  ExpectParseError(call,
                   std::to_string(bytes) + " unexpected trailing byte(s)");
}

TEST(ChainFold, TrailingPayloadBytesAreRejectedByEveryParser) {
  const World& w = SharedWorld();
  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 40);
  const std::string full = Checkpoint(writer);
  writer.MarkCheckpointClean();
  Feed(writer, w, 40, 80);
  std::ostringstream delta_out;
  writer.SaveDeltaCheckpoint(delta_out);
  const std::string delta = delta_out.str();
  const std::string shard_state = writer.ExportShard(0);
  writer.Stop();

  for (const std::string& extra :
       {std::string("x"), std::string("\ngarbage")}) {
    SCOPED_TRACE("extra " + std::to_string(extra.size()) + " byte(s)");
    const std::string bad_full =
        ReframeWithExtra(full, serve::kFleetCheckpointMagic,
                         serve::kFleetCheckpointVersion, extra);
    const std::string bad_delta = ReframeWithExtra(
        delta, serve::kFleetDeltaMagic, serve::kFleetDeltaVersion, extra);

    FleetServer victim = MakeServer(w);
    const std::string fresh = Checkpoint(victim);
    ExpectTrailingBytesError([&] { victim.RestoreCheckpoint(bad_full); },
                             extra.size());
    // Bytes after the member's frame break the same rule.
    ExpectTrailingBytesError([&] { victim.RestoreCheckpoint(full + extra); },
                             extra.size());
    // Boot recovery over a chain whose manifest vouches for either full
    // quarantines it with the byte count and starts fresh: the delta left
    // without its full restores nothing.
    for (const std::string& bad : {bad_full, full + extra}) {
      ScratchDir dir;
      WriteTwoMemberChain(dir, bad, delta);
      CheckpointChain chain(ChainConfig{dir.path(), 64});
      const ChainRecoveryResult outcome = chain.Recover(victim);
      EXPECT_TRUE(outcome.fresh_start());
      ASSERT_EQ(outcome.errors.size(), 1u);
      EXPECT_NE(outcome.errors[0].find(std::to_string(extra.size()) +
                                       " unexpected trailing byte(s)"),
                std::string::npos)
          << outcome.errors[0];
    }
    // A migrated shard's state is exactly one engine frame too.
    const std::string shard_before = victim.ExportShard(0);
    ExpectTrailingBytesError(
        [&] { victim.ImportShard(0, shard_state + extra); }, extra.size());
    EXPECT_EQ(victim.ExportShard(0), shard_before);
    EXPECT_EQ(Checkpoint(victim), fresh);

    victim.RestoreCheckpoint(full);
    const std::string base = Checkpoint(victim);
    ExpectTrailingBytesError([&] { victim.ApplyDeltaCheckpoint(bad_delta); },
                             extra.size());
    EXPECT_EQ(Checkpoint(victim), base);

    // The fold, over chains whose manifest vouches for the re-framed
    // member: one with a bad full, one with a bad delta.
    for (const bool bad_is_full : {true, false}) {
      ScratchDir dir;
      WriteTwoMemberChain(dir, bad_is_full ? bad_full : full,
                          bad_is_full ? delta : bad_delta);
      ExpectTrailingBytesError([&] { FoldChain(dir.path()); }, extra.size());
    }
  }
}

// --- retired frame versions ----------------------------------------------

template <typename Call>
void ExpectVersionMismatch(Call call, std::uint32_t version) {
  ExpectParseError(call,
                   "version mismatch — stream is v" + std::to_string(version));
}

TEST(ChainFold, RetiredEngineFrameVersionsFailWithVersionMismatch) {
  // Engine state v1 (text), v2 (binary with raw-record windows), v3
  // (fixed-width bank blobs) and v4 (blobs with derived fields and two
  // classification views) and engine delta v1 to v3 are retired: a member
  // that nests them must fail at the frame reader with the version-mismatch
  // message, before any payload is read, through every restore path — and
  // boot recovery must quarantine it rather than serve from it.
  const World& w = SharedWorld();
  FleetServer writer = MakeServer(w);
  writer.Start();
  Feed(writer, w, 0, 40);
  const std::string full = Checkpoint(writer);
  writer.MarkCheckpointClean();
  Feed(writer, w, 40, 80);
  std::ostringstream delta_out;
  writer.SaveDeltaCheckpoint(delta_out);
  const std::string delta = delta_out.str();
  writer.Stop();

  FleetServer victim = MakeServer(w);
  const std::string fresh = Checkpoint(victim);
  for (const std::uint32_t version : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("engine state v" + std::to_string(version));
    const std::string old_full =
        serve::test_support::ReframeMember(full, false, version);
    ExpectVersionMismatch([&] { victim.RestoreCheckpoint(old_full); },
                          version);
    EXPECT_EQ(Checkpoint(victim), fresh);

    ScratchDir dir;
    WriteTwoMemberChain(dir, old_full, delta);
    ExpectVersionMismatch([&] { FoldChain(dir.path()); }, version);

    // First boot on a pre-change chain: quarantined, and the server starts
    // fresh.
    CheckpointChain chain(ChainConfig{dir.path(), 64});
    const ChainRecoveryResult chain_outcome = chain.Recover(victim);
    EXPECT_TRUE(chain_outcome.fresh_start());
    EXPECT_FALSE(chain_outcome.quarantined.empty());
    ASSERT_FALSE(chain_outcome.errors.empty());
    EXPECT_NE(chain_outcome.errors.front().find(
                  "version mismatch — stream is v" + std::to_string(version)),
              std::string::npos)
        << chain_outcome.errors.front();
    EXPECT_TRUE(FileExists(dir.File("full-000001.ckpt.corrupt")));
    EXPECT_EQ(Checkpoint(victim), fresh);
  }

  victim.RestoreCheckpoint(full);
  const std::string base = Checkpoint(victim);
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("engine delta v" + std::to_string(version));
    const std::string old_delta =
        serve::test_support::ReframeMember(delta, true, version);
    ExpectVersionMismatch([&] { victim.ApplyDeltaCheckpoint(old_delta); },
                          version);
    EXPECT_EQ(Checkpoint(victim), base);
    ScratchDir dir;
    WriteTwoMemberChain(dir, full, old_delta);
    ExpectVersionMismatch([&] { FoldChain(dir.path()); }, version);
  }
}

// --- format goldens -------------------------------------------------------

TEST(ChainGolden, MemberBytesMatchPinnedHashes) {
  // The fold oracle compares two outputs of one build, so an encoder
  // rewrite could change the format on both sides and still pass. These
  // hashes pin the bytes themselves, across builds: a binary full member,
  // the delta after it, their fold and the MANIFEST listing both, for one
  // seeded stream.
  struct Golden {
    std::size_t shards;
    std::uint64_t full, delta, fold, manifest;
  };
  const Golden goldens[] = {
      {1, 0x3b7dd1123a43dc9dull, 0xfcb94eeaff379196ull, 0x3fe13953d4653dcbull,
       0x4520b8d12a4dce98ull},
      {2, 0x9da86a75d6979165ull, 0x0f112cda9a622f35ull, 0x11b36ef6d47a2474ull,
       0xb643cbec7ea2371aull},
  };
  const World& w = SharedWorld();
  const std::size_t records = w.fleet.log.records().size();
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(std::to_string(golden.shards) + " shard(s)");
    ScratchDir dir;
    serve::FleetServerConfig config;
    config.shard_count = golden.shards;
    FleetServer server(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), config);
    CheckpointChain chain(ChainConfig{dir.path(), 64});
    server.Start();
    Feed(server, w, 0, records / 2);
    const std::string full = Checkpoint(server);
    EXPECT_EQ(FileBytes(chain.WriteFull(server).file), full);
    Feed(server, w, records / 2, records);
    std::ostringstream delta;
    server.SaveDeltaCheckpoint(delta);
    const ChainWriteResult written = chain.Write(server);
    ASSERT_FALSE(written.full);
    EXPECT_EQ(FileBytes(written.file), delta.str());
    server.Stop();
    const std::string fold = FoldChain(dir.path());
    EXPECT_EQ(Fnv1a(full), golden.full) << std::hex << Fnv1a(full);
    EXPECT_EQ(Fnv1a(delta.str()), golden.delta) << std::hex
                                                << Fnv1a(delta.str());
    EXPECT_EQ(Fnv1a(fold), golden.fold) << std::hex << Fnv1a(fold);
    const std::string manifest = FileBytes(dir.File(kManifestFileName));
    EXPECT_EQ(Fnv1a(manifest), golden.manifest) << std::hex
                                                << Fnv1a(manifest);
  }
}

// --- manifest codec -------------------------------------------------------

/// A canonical manifest: chain `epoch`'s full and then deltas 1..n, for
/// `members` members, each with its own size and CRC-32.
Manifest SampleManifest(std::uint64_t epoch, std::size_t members) {
  Manifest manifest;
  manifest.epoch = epoch;
  for (std::size_t seq = 0; seq < members; ++seq) {
    ChainEntry entry;
    entry.is_full = seq == 0;
    entry.epoch = epoch;
    entry.seq = seq;
    char file[64];
    if (entry.is_full) {
      std::snprintf(file, sizeof file, "full-%06llu.ckpt",
                    static_cast<unsigned long long>(epoch));
    } else {
      std::snprintf(file, sizeof file, "delta-%06llu.%04zu.ckpt",
                    static_cast<unsigned long long>(epoch), seq);
    }
    entry.file = file;
    entry.bytes = 123456 + 1000 * seq;
    entry.crc32 = 0xDEADBEEFu - static_cast<std::uint32_t>(seq);
    manifest.entries.push_back(entry);
  }
  return manifest;
}

/// The payload of a framed manifest, and a payload framed as a manifest.
std::string ManifestPayload(std::string_view framed) {
  return std::string(ReadFramedView(framed, kManifestMagic, kManifestVersion));
}
std::string FramedManifest(std::string payload) {
  CloseFrame(payload, 0, kManifestMagic, kManifestVersion);
  return payload;
}

TEST(ChainManifest, CodecRoundTripsAndValidatesShape) {
  const Manifest manifest = SampleManifest(7, 3);
  const std::string bytes = EncodeManifest(manifest);
  const Manifest decoded = DecodeManifest(bytes);
  EXPECT_EQ(decoded.epoch, manifest.epoch);
  ASSERT_EQ(decoded.entries.size(), manifest.entries.size());
  for (std::size_t i = 0; i < decoded.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].is_full, manifest.entries[i].is_full);
    EXPECT_EQ(decoded.entries[i].epoch, manifest.entries[i].epoch);
    EXPECT_EQ(decoded.entries[i].seq, manifest.entries[i].seq);
    EXPECT_EQ(decoded.entries[i].file, manifest.entries[i].file);
    EXPECT_EQ(decoded.entries[i].bytes, manifest.entries[i].bytes);
    EXPECT_EQ(decoded.entries[i].crc32, manifest.entries[i].crc32);
  }
  EXPECT_EQ(EncodeManifest(decoded), bytes);

  // Only sizes and CRCs are stored, so the encoder refuses a manifest
  // whose kinds, seqs, epochs or names the positions would not derive.
  const auto refused = [](const char* what,
                          const std::function<void(Manifest&)>& edit) {
    Manifest bad = SampleManifest(7, 3);
    edit(bad);
    EXPECT_THROW(EncodeManifest(bad), ContractViolation) << what;
  };
  refused("no member", [](Manifest& m) { m.entries.clear(); });
  refused("a delta first",
          [](Manifest& m) { m.entries.erase(m.entries.begin()); });
  refused("a seq gap", [](Manifest& m) {
    m.entries.back().seq = 5;
    m.entries.back().file = "delta-000007.0005.ckpt";
  });
  refused("a foreign epoch", [](Manifest& m) { m.entries.back().epoch = 8; });
  refused("a second full", [](Manifest& m) { m.entries[1].is_full = true; });
  refused("another file name",
          [](Manifest& m) { m.entries[1].file = "delta-000007.0009.ckpt"; });

  // The decoder refuses, under a frame whose CRC vouches for the payload,
  // an empty member list, a count past the bytes left, every truncation
  // and trailing bytes, in the payload or after the frame.
  const std::string payload = ManifestPayload(bytes);
  ASSERT_EQ(payload.size(), 8u + 4u + 3u * 12u);
  ExpectParseError(
      [&] {
        DecodeManifest(FramedManifest(payload.substr(0, 8) +
                                      std::string(4, '\0')));
      },
      "chain has no members");
  std::string overcount = payload;
  overcount[8] = 4;
  ExpectParseError([&] { DecodeManifest(FramedManifest(overcount)); },
                   "implausible element count 4");
  for (std::size_t length = 0; length < payload.size(); ++length) {
    EXPECT_THROW(DecodeManifest(FramedManifest(payload.substr(0, length))),
                 ParseError)
        << "payload cut to " << length << " bytes";
  }
  ExpectTrailingBytesError(
      [&] { DecodeManifest(FramedManifest(payload + "x")); }, 1);
  ExpectTrailingBytesError([&] { DecodeManifest(bytes + "xy"); }, 2);
}

TEST(ChainManifest, PayloadMutantsFailClosedOrDecodeCanonically) {
  // Modelled on the NetWire and ModelParser mutant tests. First every
  // single-bit flip of a framed 3-member manifest, the header's crc32 left
  // stale: DecodeManifest must refuse each with ParseError. Then 10^4
  // seeded mutants of its payload that rewrite 2 to 8 random bytes,
  // re-framed with their own crc32: the checksum passes, so the payload
  // decoder is the only line of defence, and each must throw ParseError or
  // decode to a manifest that re-encodes to exactly the mutant.
  const std::string framed = EncodeManifest(SampleManifest(7, 3));
  std::size_t flips_refused = 0;
  std::string flipped = framed;
  for (std::size_t at = 0; at < framed.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      flipped[at] = static_cast<char>(framed[at] ^ (1 << bit));
      try {
        DecodeManifest(flipped);
        ADD_FAILURE() << "byte " << at << " bit " << bit << ": accepted";
      } catch (const ParseError&) {
        ++flips_refused;
      }
    }
    flipped[at] = framed[at];
  }
  EXPECT_EQ(flips_refused, framed.size() * 8);

  const std::string pristine = ManifestPayload(framed);
  std::mt19937_64 rng(20261019);
  std::size_t refused = 0;
  std::size_t decoded = 0;
  for (int m = 0; m < 10000; ++m) {
    std::string payload = pristine;
    const auto bytes = 2 + static_cast<int>(rng() % 7);
    for (int b = 0; b < bytes; ++b) {
      payload[rng() % payload.size()] = static_cast<char>(rng());
    }
    const std::string mutant = FramedManifest(payload);
    Manifest manifest;
    try {
      manifest = DecodeManifest(mutant);
    } catch (const ParseError&) {
      ++refused;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << m << ": " << e.what();
    }
    ++decoded;
    EXPECT_EQ(EncodeManifest(manifest), mutant) << "mutant " << m;
  }
  std::printf("manifest flips: %zu refused; manifest payload mutants: %zu "
              "refused, %zu decoded\n",
              flips_refused, refused, decoded);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace cordial::persist
