// Checkpoint chains: full + delta members under one manifest, with
// fail-closed recovery and compaction (DESIGN.md §14).
//
// A chain lives in one directory:
//
//   full-<epoch>.ckpt         binary full fleet checkpoint (epoch base)
//   delta-<epoch>.<seq>.ckpt  dirty-bank deltas, seq = 1..n, contiguous
//   MANIFEST (+ .prev)        framed index: every member's size and CRC-32
//
// Every member is itself a CRC-framed stream, and the manifest re-records
// each member's whole-file CRC — so recovery can reject a member that was
// truncated, bit-flipped, or swapped without parsing it. The manifest is
// written durably (WriteFileDurably, retain_prev) AFTER its member, so a
// crash between the two leaves an unlisted member file that the next write
// simply overwrites; members themselves skip `.prev` (their history IS the
// chain).
//
// Recovery policy (fail closed to the newest intact prefix):
//   1. load MANIFEST, falling back to MANIFEST.prev (corrupt ones are
//      quarantined to `.corrupt`);
//   2. restore the chain's full member, then apply its deltas in sequence
//      order; the first corrupt member is quarantined BY NAME, the members
//      after it are dropped, and the state stands at the intact prefix;
//   3. a corrupt full member fails the whole epoch: scan the directory for
//      an older epoch's chain and repeat;
//   4. nothing restorable → fresh start.
// Any fallback (quarantine, scan rescue, fresh start) forces the next
// Write() to begin a new epoch with a full snapshot, so a damaged chain is
// never extended.
//
// Write policy: Write() appends a delta while the chain is appendable and
// shorter than compact_every deltas, then folds by writing a fresh full
// from live state (new epoch) and pruning the old generation. A state
// installed into the server since the chain's full (ImportShard, or a
// restore from elsewhere) is not in its dirty set, so it also forces a
// full. The dirty set is cleared only after both the member and the
// manifest are durable — a failed write loses nothing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cordial::serve {
class FleetServer;
}  // namespace cordial::serve

namespace cordial::persist {

inline constexpr char kManifestMagic[] = "cordial_ckpt_manifest";
// v2: binary payload (persist/binary_io.hpp) holding only what the manifest
// alone knows — u64 epoch | u32 member count (>= 1) | per member, in chain
// order, its u64 byte size and u32 whole-file CRC-32. A member's kind, seq
// and file name follow from its position: the full first, then deltas
// 1..n. v1 (a text payload) is retired: an older build's MANIFEST fails
// its version check and is quarantined like a corrupt one, and the
// directory scan still restores its chain.
inline constexpr std::uint32_t kManifestVersion = 2;
inline constexpr char kManifestFileName[] = "MANIFEST";

/// One member of a chain. A manifest stores its size and CRC-32; the kind,
/// epoch, seq and file name follow from its position in the chain.
struct ChainEntry {
  bool is_full = false;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;  ///< 0 for the full member, 1..n for deltas
  std::string file;       ///< file name within the chain directory
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;  ///< CRC-32 of the whole member file
};

struct Manifest {
  std::uint64_t epoch = 0;          ///< current chain's epoch (0 = none yet)
  std::vector<ChainEntry> entries;  ///< full first, then deltas by seq
};

/// The bytes of a MANIFEST file: one v2 frame. ContractViolation when the
/// manifest is not the one its epoch and member count derive — no member,
/// a first member that is not the full, a delta out of seq order, a member
/// of another epoch or under another file name — since only sizes and
/// CRCs are stored.
std::string EncodeManifest(const Manifest& manifest);
/// Decode the whole bytes of a MANIFEST file: exactly one frame, nothing
/// after it (the members' trailing-bytes rule). ParseError on a member
/// count of 0 or past the bytes left, truncation and trailing bytes.
Manifest DecodeManifest(std::string_view bytes);

struct ChainConfig {
  std::string directory;
  /// Deltas per epoch before Write() folds the chain into a fresh full.
  std::size_t compact_every = 16;
};

struct ChainWriteResult {
  bool full = false;  ///< member kind written
  std::string file;   ///< full path of the member
  std::uint64_t bytes = 0;
  std::uint64_t banks_written = 0;  ///< banks serialized into the member
  std::size_t chain_length = 0;     ///< members now in the chain (incl. full)
};

struct ChainRecoveryResult {
  /// Summary of what restored, e.g. "full-000003.ckpt + 2 delta(s)";
  /// empty = fresh start.
  std::string restored_from;
  std::vector<std::string> applied;      ///< members applied, in order
  std::vector<std::string> quarantined;  ///< corrupt members/manifests, renamed
  std::vector<std::string> errors;       ///< one reason per quarantined file
  bool fell_back = false;  ///< newest chain could not be fully used

  bool fresh_start() const { return restored_from.empty(); }
};

/// Owns one chain directory: boot recovery plus the full/delta write and
/// compaction policy. Not thread-safe; the serving daemon calls it from its
/// checkpoint path while the server is drained.
class CheckpointChain {
 public:
  /// Creates config.directory when it is missing (one level). Throws
  /// ContractViolation naming the path when something other than a
  /// directory is there, or when it cannot be created.
  explicit CheckpointChain(ChainConfig config);

  /// Boot-time recovery (policy above). Also positions the writer: after an
  /// intact-chain restore Write() keeps appending deltas to it; after any
  /// fallback the next Write() starts a new epoch with a full.
  ChainRecoveryResult Recover(serve::FleetServer& server);

  /// Write the next member per policy (delta while appendable, short of
  /// compact_every and with no state installed since the chain's full,
  /// else a full that starts a new epoch and prunes the old one). The
  /// server must be drained. Clears the server's dirty set only after the
  /// member and manifest are durable.
  ChainWriteResult Write(serve::FleetServer& server);
  /// Force a full member (new epoch) regardless of chain length.
  ChainWriteResult WriteFull(serve::FleetServer& server);

  /// Members in the current chain (0 when it cannot be extended).
  std::size_t chain_length() const {
    return can_append_ ? manifest_.entries.size() : 0;
  }
  std::uint64_t epoch() const { return manifest_.epoch; }
  const ChainConfig& config() const { return config_; }

 private:
  ChainWriteResult WriteDelta(serve::FleetServer& server);
  void PersistManifest() const;
  std::string PathOf(const std::string& file) const;

  ChainConfig config_;
  Manifest manifest_;
  /// True only while the on-disk chain matches manifest_ and may grow.
  bool can_append_ = false;
  /// server.state_installs() as of the chain's full (written or recovered).
  std::uint64_t installs_at_full_ = 0;
};

// --- offline inspection / folding (no models needed) ---------------------

/// What the inspector learned about one chain member.
struct MemberInfo {
  ChainEntry entry;
  bool exists = false;
  bool crc_ok = false;  ///< whole-file CRC matches the manifest
  std::uint64_t actual_bytes = 0;
  std::size_t shard_count = 0;   ///< from structural parse (0 on failure)
  std::uint64_t bank_count = 0;  ///< bank records in the member
  std::string error;             ///< empty = member is sound
};

struct ChainInspection {
  bool has_manifest = false;
  Manifest manifest;
  std::vector<MemberInfo> members;
  std::vector<std::string> errors;  ///< manifest-level problems

  bool ok() const {
    if (!has_manifest || !errors.empty()) return false;
    for (const MemberInfo& m : members) {
      if (!m.exists || !m.crc_ok || !m.error.empty()) return false;
    }
    return true;
  }
};

/// Verify a chain offline: manifest, member existence, CRCs, structural
/// shape (shard counts, bank records). Never throws; problems land in the
/// returned report.
ChainInspection InspectChain(const std::string& directory);

/// Fold the chain into the bytes of an equivalent binary full checkpoint
/// (cordial_fleet_checkpoint frame) without models or topology: the newest
/// member's header section is kept verbatim and bank records are overlaid
/// by key. Byte-identical to what the serving process would write as a
/// binary full at the same record boundary. Throws ParseError on a missing/
/// corrupt manifest or member, or on a member at a retired frame version.
std::string FoldChain(const std::string& directory);

/// Force-compact on disk: fold the chain, write it as full-<epoch+1>.ckpt
/// with a fresh manifest, and prune the previous generation's files.
/// Throws on a chain FoldChain rejects.
ChainWriteResult CompactChainFiles(const std::string& directory);

}  // namespace cordial::persist
