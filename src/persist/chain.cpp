#include "persist/chain.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/persist.hpp"
#include "persist/binary_io.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet_server.hpp"

namespace cordial::persist {

namespace {

std::string FullFileName(std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "full-%06llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string DeltaFileName(std::uint64_t epoch, std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "delta-%06llu.%04llu.ckpt",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(seq));
  return buf;
}

/// The member at `position` of chain `epoch`, as a manifest records it,
/// without its size and CRC: the full at position 0, delta seq n at n.
ChainEntry MemberAt(std::uint64_t epoch, std::size_t position) {
  ChainEntry entry;
  entry.is_full = position == 0;
  entry.epoch = epoch;
  entry.seq = position;
  entry.file =
      entry.is_full ? FullFileName(epoch) : DeltaFileName(epoch, position);
  return entry;
}

std::string JoinPath(const std::string& directory, const std::string& file) {
  if (directory.empty()) return file;
  if (directory.back() == '/') return directory + file;
  return directory + "/" + file;
}

/// Rename a corrupt file to `<file>.corrupt` for post-mortem inspection.
void Quarantine(const std::string& path) {
  std::rename(path.c_str(), (path + ".corrupt").c_str());
}

/// Parse "full-<epoch>.ckpt" / "delta-<epoch>.<seq>.ckpt". Returns false
/// for anything else (manifests, tmp files, quarantined members).
bool ParseMemberName(const std::string& name, ChainEntry& entry) {
  const auto digits = [](const std::string& s, std::size_t from,
                         std::size_t to, std::uint64_t& value) {
    if (from >= to) return false;
    value = 0;
    for (std::size_t i = from; i < to; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      value = value * 10 + static_cast<std::uint64_t>(s[i] - '0');
    }
    return true;
  };
  const std::string suffix = ".ckpt";
  if (name.size() <= suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::size_t end = name.size() - suffix.size();
  if (name.rfind("full-", 0) == 0) {
    if (!digits(name, 5, end, entry.epoch)) return false;
    entry.is_full = true;
    entry.seq = 0;
    entry.file = name;
    return true;
  }
  if (name.rfind("delta-", 0) == 0) {
    const std::size_t dot = name.find('.', 6);
    if (dot == std::string::npos || dot >= end) return false;
    if (!digits(name, 6, dot, entry.epoch)) return false;
    if (!digits(name, dot + 1, end, entry.seq)) return false;
    entry.is_full = false;
    entry.file = name;
    return true;
  }
  return false;
}

/// All chain-member files in `directory` (by name shape only).
std::vector<ChainEntry> ScanMembers(const std::string& directory) {
  std::vector<ChainEntry> members;
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) return members;
  while (dirent* ent = ::readdir(dir)) {
    ChainEntry entry;
    if (ParseMemberName(ent->d_name, entry)) members.push_back(entry);
  }
  ::closedir(dir);
  return members;
}

/// Group scanned members into restore candidates, newest epoch first: each
/// candidate is a full plus its contiguous deltas (seq 1..n, stopping at
/// the first gap). Epochs without a full cannot be restored and are
/// skipped.
std::vector<std::vector<ChainEntry>> ScanChains(const std::string& directory) {
  std::map<std::uint64_t, std::vector<ChainEntry>> by_epoch;
  for (ChainEntry& entry : ScanMembers(directory)) {
    by_epoch[entry.epoch].push_back(std::move(entry));
  }
  std::vector<std::vector<ChainEntry>> chains;
  for (auto it = by_epoch.rbegin(); it != by_epoch.rend(); ++it) {
    std::vector<ChainEntry>& members = it->second;
    std::sort(members.begin(), members.end(),
              [](const ChainEntry& a, const ChainEntry& b) {
                if (a.is_full != b.is_full) return a.is_full;
                return a.seq < b.seq;
              });
    if (members.empty() || !members.front().is_full) continue;
    std::vector<ChainEntry> chain;
    chain.push_back(members.front());
    std::uint64_t expect_seq = 1;
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (members[i].is_full || members[i].seq != expect_seq) break;
      chain.push_back(members[i]);
      ++expect_seq;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

std::uint64_t MaxEpochOnDisk(const std::string& directory) {
  std::uint64_t max_epoch = 0;
  for (const ChainEntry& entry : ScanMembers(directory)) {
    max_epoch = std::max(max_epoch, entry.epoch);
  }
  return max_epoch;
}

/// Load and decode a manifest file. Returns false when the file does not
/// exist; throws ParseError when it exists but is malformed.
bool LoadManifestFile(const std::string& path, Manifest& manifest) {
  std::string bytes;
  if (!serve::ReadFileBytes(path, bytes)) return false;
  manifest = DecodeManifest(bytes);
  return true;
}

/// Remove every chain-member file in `directory` that `keep` does not list.
/// Quarantined (`.corrupt`) files and manifests are untouched. Best-effort:
/// pruning runs only after the new manifest is durable, so a leftover file
/// is garbage, not state.
void PruneExcept(const std::string& directory, const Manifest& keep) {
  for (const ChainEntry& entry : ScanMembers(directory)) {
    bool kept = false;
    for (const ChainEntry& k : keep.entries) {
      if (k.file == entry.file) {
        kept = true;
        break;
      }
    }
    if (!kept) ::unlink(JoinPath(directory, entry.file).c_str());
  }
}

// --- structural member images (offline fold) ------------------------------

/// One shard's section of a member: the header blob verbatim plus each
/// bank's blob keyed for overlay. The fold never decodes bank contents — it
/// only needs the self-delimiting lengths. A member's image holds views
/// into its bytes; the fold's image owns copies, so each member's bytes are
/// released before the next member is read.
template <typename Bytes>
struct ShardImage {
  Bytes header;
  std::map<std::uint64_t, Bytes> banks;  ///< sorted, as the codec writes
};

struct MemberImage {
  bool is_delta = false;
  std::vector<ShardImage<std::string_view>> shards;
};

using FoldImage = std::vector<ShardImage<std::string>>;

/// Slice a member's frames in place; the image points into `bytes`.
MemberImage ParseMemberImage(std::string_view bytes,
                             const std::string& member) {
  const std::string_view lead = PeekMagic(bytes);
  MemberImage image;
  std::string_view payload;
  if (lead == serve::kFleetCheckpointMagic) {
    payload = ReadFramedView(bytes, serve::kFleetCheckpointMagic,
                             serve::kFleetCheckpointVersion);
  } else if (lead == serve::kFleetDeltaMagic) {
    image.is_delta = true;
    payload = ReadFramedView(bytes, serve::kFleetDeltaMagic,
                             serve::kFleetDeltaVersion);
  } else {
    throw ParseError(member + ": not a chain member (magic \"" +
                     std::string(lead) + "\")");
  }
  ExpectNoTrailingBytes(bytes, member);
  const std::uint64_t shard_count = serve::TakeShardCount(payload, member);
  image.shards.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(shard_count, 1u << 12)));
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    const std::string_view engine_payload =
        image.is_delta
            ? ReadFramedView(payload, core::kEngineDeltaMagic,
                             core::kEngineDeltaVersion)
            : ReadFramedView(payload, core::kEngineStateMagic,
                             core::kEngineStateVersion);
    BinaryReader reader(engine_payload, "chain member shard");
    ShardImage<std::string_view> shard;
    const std::uint32_t header_len = reader.Count32(1);
    shard.header = reader.Bytes(header_len);
    const std::uint64_t bank_count = reader.Count(8 + 4);
    for (std::uint64_t b = 0; b < bank_count; ++b) {
      const std::uint64_t key = reader.U64();
      const std::uint32_t blob_len = reader.Count32(1);
      if (!shard.banks.emplace(key, reader.Bytes(blob_len)).second) {
        throw ParseError(member + ": duplicate bank key in shard section");
      }
    }
    reader.ExpectEnd();
    image.shards.push_back(std::move(shard));
  }
  ExpectNoTrailingBytes(payload, member + " payload");
  return image;
}

/// Copy a member's image over the fold's: headers are replaced (the newest
/// member carries the newest global counters), bank blobs overlay by key.
void OverlayImage(FoldImage& fold, const MemberImage& member,
                  const std::string& name) {
  if (member.shards.size() != fold.size()) {
    throw ParseError(name + ": delta has " +
                     std::to_string(member.shards.size()) +
                     " shard(s) but the chain's full has " +
                     std::to_string(fold.size()));
  }
  // Fresh exact-size copies: assigning into an existing string may double
  // its capacity.
  for (std::size_t s = 0; s < fold.size(); ++s) {
    fold[s].header = std::string(member.shards[s].header);
    for (const auto& [key, blob] : member.shards[s].banks) {
      fold[s].banks.insert_or_assign(key, std::string(blob));
    }
  }
}

/// Serialize an image as the bytes of a binary full checkpoint — the same
/// frame nesting and field layout the live server writes, so a fold of
/// full+deltas is byte-identical to the full the server would have written
/// at the same record boundary. The image knows every length, so the
/// buffer is reserved to its exact size and never grows.
std::string SerializeImageAsFull(const FoldImage& image) {
  // A header line's length does not depend on its CRC, so a placeholder
  // CRC sizes it.
  const std::string count_line = serve::ShardCountLine(image.size());
  std::uint64_t payload_bytes = count_line.size();
  for (const ShardImage<std::string>& shard : image) {
    std::uint64_t engine_bytes = 4 + shard.header.size() + 8;
    for (const auto& [key, blob] : shard.banks) {
      engine_bytes += 8 + 4 + blob.size();
    }
    payload_bytes += FrameHeaderLine(core::kEngineStateMagic,
                                     core::kEngineStateVersion, engine_bytes,
                                     0)
                         .size() +
                     engine_bytes;
  }
  std::string out;
  out.reserve(FrameHeaderLine(serve::kFleetCheckpointMagic,
                              serve::kFleetCheckpointVersion, payload_bytes, 0)
                  .size() +
              payload_bytes);
  out += count_line;
  for (const ShardImage<std::string>& shard : image) {
    const std::size_t frame = out.size();
    BinaryWriter writer(out);
    writer.U32(static_cast<std::uint32_t>(shard.header.size()));
    writer.Bytes(shard.header);
    writer.U64(shard.banks.size());
    for (const auto& [key, blob] : shard.banks) {
      writer.U64(key);
      writer.U32(static_cast<std::uint32_t>(blob.size()));
      writer.Bytes(blob);
    }
    CloseFrame(out, frame, core::kEngineStateMagic, core::kEngineStateVersion);
  }
  CloseFrame(out, 0, serve::kFleetCheckpointMagic,
             serve::kFleetCheckpointVersion);
  return out;
}

/// Load the manifest for an offline tool: MANIFEST, then MANIFEST.prev.
/// Throws ParseError naming the directory when neither is usable.
Manifest RequireManifest(const std::string& directory) {
  Manifest manifest;
  const std::string primary = JoinPath(directory, kManifestFileName);
  std::string first_error;
  try {
    if (LoadManifestFile(primary, manifest)) return manifest;
    first_error = primary + ": no such file";
  } catch (const ParseError& e) {
    first_error = primary + ": " + e.what();
  }
  try {
    if (LoadManifestFile(primary + ".prev", manifest)) return manifest;
  } catch (const ParseError&) {
  }
  throw ParseError("no usable chain manifest in " + directory + " (" +
                   first_error + ")");
}

/// Read one member's bytes and require the manifest's size + CRC to match.
std::string RequireMemberBytes(const std::string& directory,
                               const ChainEntry& entry) {
  const std::string path = JoinPath(directory, entry.file);
  std::string bytes;
  if (!serve::ReadFileBytes(path, bytes)) {
    throw ParseError(entry.file + ": chain member missing");
  }
  if (bytes.size() != entry.bytes || Crc32(bytes) != entry.crc32) {
    throw ParseError(entry.file +
                     ": chain member does not match its manifest record "
                     "(size/CRC-32 mismatch)");
  }
  return bytes;
}

FoldImage FoldManifest(const std::string& directory,
                       const Manifest& manifest) {
  CORDIAL_CHECK_MSG(!manifest.entries.empty(), "fold: empty manifest");
  FoldImage fold;
  for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
    const ChainEntry& entry = manifest.entries[i];
    const std::string bytes = RequireMemberBytes(directory, entry);
    const MemberImage member = ParseMemberImage(bytes, entry.file);
    if (i == 0) {
      if (member.is_delta) {
        throw ParseError(entry.file +
                         ": chain's first member is not a full checkpoint");
      }
      fold.resize(member.shards.size());
    } else if (!member.is_delta) {
      throw ParseError(entry.file + ": expected a delta member");
    }
    OverlayImage(fold, member, entry.file);
  }
  return fold;
}

}  // namespace

// --- manifest codec -------------------------------------------------------

std::string EncodeManifest(const Manifest& manifest) {
  CORDIAL_CHECK_MSG(!manifest.entries.empty(),
                    "manifest: chain has no members");
  std::string out;
  BinaryWriter writer(out);
  writer.U64(manifest.epoch);
  writer.U32(static_cast<std::uint32_t>(manifest.entries.size()));
  for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
    const ChainEntry& entry = manifest.entries[i];
    const ChainEntry derived = MemberAt(manifest.epoch, i);
    CORDIAL_CHECK_MSG(entry.is_full == derived.is_full &&
                          entry.epoch == derived.epoch &&
                          entry.seq == derived.seq &&
                          entry.file == derived.file,
                      "manifest: member " + std::to_string(i) + " (" +
                          entry.file + ") is not " + derived.file +
                          " of epoch " + std::to_string(manifest.epoch));
    writer.U64(entry.bytes);
    writer.U32(entry.crc32);
  }
  CloseFrame(out, 0, kManifestMagic, kManifestVersion);
  return out;
}

Manifest DecodeManifest(std::string_view bytes) {
  const std::string_view payload =
      ReadFramedView(bytes, kManifestMagic, kManifestVersion);
  ExpectNoTrailingBytes(bytes, kManifestFileName);
  BinaryReader reader(payload, "chain manifest");
  Manifest manifest;
  manifest.epoch = reader.U64();
  const std::uint32_t count = reader.Count32(8 + 4);
  if (count == 0) reader.Fail("chain has no members");
  manifest.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ChainEntry entry = MemberAt(manifest.epoch, i);
    entry.bytes = reader.U64();
    entry.crc32 = reader.U32();
    manifest.entries.push_back(std::move(entry));
  }
  reader.ExpectEnd();
  return manifest;
}

// --- CheckpointChain ------------------------------------------------------

CheckpointChain::CheckpointChain(ChainConfig config)
    : config_(std::move(config)) {
  CORDIAL_CHECK_MSG(!config_.directory.empty(),
                    "checkpoint chain needs a directory");
  CORDIAL_CHECK_MSG(config_.compact_every >= 1,
                    "checkpoint chain needs compact_every >= 1");
  // Create the directory (one level: a missing parent is an error) and
  // refuse anything else at the path before a record is served. A file
  // there, such as a single-file checkpoint, is left untouched.
  const char* const path = config_.directory.c_str();
  const int error = ::mkdir(path, 0777) == 0 ? 0 : errno;
  struct stat st;
  const bool is_directory = ::stat(path, &st) == 0 && S_ISDIR(st.st_mode);
  CORDIAL_CHECK_MSG(
      is_directory,
      "checkpoint chain path " + config_.directory +
          (error == EEXIST ? " exists and is not a directory"
                           : std::string(" cannot be created: ") +
                                 std::strerror(error)));
}

std::string CheckpointChain::PathOf(const std::string& file) const {
  return JoinPath(config_.directory, file);
}

ChainRecoveryResult CheckpointChain::Recover(serve::FleetServer& server) {
  ChainRecoveryResult outcome;
  manifest_ = Manifest{};
  can_append_ = false;

  // Restore candidates: the manifest's chain first (CRC-verified against
  // its records), then — when the manifest is unusable or its chain's full
  // is — every restorable chain the directory scan finds, newest epoch
  // first (no manifest CRCs to check; the members' own frame checksums
  // still gate every byte).
  enum class Attempt { kFailed, kPartial, kIntact };
  const auto try_chain = [&](const std::vector<ChainEntry>& entries,
                             bool verify_crc) -> Attempt {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const ChainEntry& entry = entries[i];
      const bool full = i == 0;
      // A damaged full fails the chain; a damaged delta cuts it short.
      const Attempt damaged = full ? Attempt::kFailed : Attempt::kPartial;
      const std::string path = PathOf(entry.file);
      std::string bytes;
      if (!serve::ReadFileBytes(path, bytes)) {
        outcome.errors.push_back(entry.file + ": chain member missing");
        return damaged;
      }
      if (verify_crc &&
          (bytes.size() != entry.bytes || Crc32(bytes) != entry.crc32)) {
        Quarantine(path);
        outcome.quarantined.push_back(path);
        outcome.errors.push_back(
            entry.file + (full ? ": full" : ": delta") +
            " member does not match its manifest record (size/CRC-32 "
            "mismatch)");
        return damaged;
      }
      try {
        if (full) {
          server.RestoreCheckpoint(bytes);
        } else {
          server.ApplyDeltaCheckpoint(bytes);
        }
      } catch (const ParseError& e) {
        Quarantine(path);
        outcome.quarantined.push_back(path);
        outcome.errors.push_back(entry.file + ": " + e.what());
        return damaged;
      }
      outcome.applied.push_back(entry.file);
    }
    return Attempt::kIntact;
  };

  const auto summarize = [&](const std::vector<ChainEntry>& entries) {
    std::string summary = entries.front().file;
    const std::size_t deltas = outcome.applied.size() - 1;
    if (deltas > 0) {
      summary += " + " + std::to_string(deltas) + " delta(s)";
    }
    outcome.restored_from = summary;
  };

  // 1. The manifest's chain.
  Manifest manifest;
  bool have_manifest = false;
  const std::string manifest_path = PathOf(kManifestFileName);
  for (const std::string& candidate : {manifest_path, manifest_path + ".prev"}) {
    try {
      if (LoadManifestFile(candidate, manifest)) {
        have_manifest = true;
        break;
      }
    } catch (const ParseError& e) {
      Quarantine(candidate);
      outcome.quarantined.push_back(candidate);
      outcome.errors.push_back(candidate + ": " + e.what());
      outcome.fell_back = true;
    }
  }
  if (have_manifest) {
    const Attempt attempt = try_chain(manifest.entries, /*verify_crc=*/true);
    if (attempt == Attempt::kIntact) {
      manifest_ = std::move(manifest);
      // Append only when nothing upstream was damaged (e.g. a quarantined
      // primary MANIFEST whose .prev restored): any fallback starts a new
      // epoch instead of growing a chain that already lost members once.
      can_append_ = !outcome.fell_back;
      installs_at_full_ = server.state_installs();
      summarize(manifest_.entries);
      return outcome;
    }
    manifest_.epoch = manifest.epoch;  // never reuse a damaged chain's epoch
    if (attempt == Attempt::kPartial) {
      outcome.fell_back = true;
      summarize(manifest.entries);
      return outcome;
    }
    outcome.fell_back = true;  // kFailed: fall through to the scan
  }

  // 2. Directory-scan rescue (also the fresh-directory path).
  for (const std::vector<ChainEntry>& chain : ScanChains(config_.directory)) {
    const Attempt attempt = try_chain(chain, /*verify_crc=*/false);
    if (attempt == Attempt::kFailed) continue;
    outcome.fell_back = outcome.fell_back || have_manifest ||
                        !outcome.quarantined.empty() ||
                        attempt == Attempt::kPartial;
    manifest_.epoch = std::max(manifest_.epoch, chain.front().epoch);
    summarize(chain);
    return outcome;
  }

  // 3. Fresh start. Never reuse an epoch a stale file might still claim.
  manifest_.epoch = std::max(manifest_.epoch, MaxEpochOnDisk(config_.directory));
  return outcome;
}

void CheckpointChain::PersistManifest() const {
  serve::WriteFileDurably(PathOf(kManifestFileName), EncodeManifest(manifest_),
                          /*retain_prev=*/true);
}

ChainWriteResult CheckpointChain::WriteFull(serve::FleetServer& server) {
  const std::uint64_t installs = server.state_installs();
  std::string bytes;
  const core::AppendedFrame member = server.AppendCheckpoint(bytes);

  ChainEntry entry = MemberAt(manifest_.epoch + 1, 0);
  entry.bytes = bytes.size();
  entry.crc32 = member.crc32;

  ChainWriteResult result;
  result.full = true;
  result.file = PathOf(entry.file);
  result.bytes = entry.bytes;
  result.banks_written = member.banks;

  serve::WriteFileDurably(result.file, bytes, /*retain_prev=*/false);
  const Manifest previous = manifest_;
  manifest_.epoch = entry.epoch;
  manifest_.entries.clear();
  manifest_.entries.push_back(std::move(entry));
  try {
    PersistManifest();
  } catch (...) {
    // The new full sits on disk unlisted; the old manifest still rules.
    // Re-attempting later rewrites the same epoch's full and manifest.
    manifest_ = previous;
    can_append_ = false;
    throw;
  }
  server.MarkCheckpointClean();
  can_append_ = true;
  installs_at_full_ = installs;
  PruneExcept(config_.directory, manifest_);
  result.chain_length = manifest_.entries.size();
  return result;
}

ChainWriteResult CheckpointChain::WriteDelta(serve::FleetServer& server) {
  std::string bytes;
  const core::AppendedFrame member = server.AppendDeltaCheckpoint(bytes);

  ChainEntry entry = MemberAt(manifest_.epoch, manifest_.entries.size());
  entry.bytes = bytes.size();
  entry.crc32 = member.crc32;

  ChainWriteResult result;
  result.full = false;
  result.file = PathOf(entry.file);
  result.bytes = entry.bytes;
  result.banks_written = member.banks;

  // Member first, manifest second, dirty set cleared last: a crash or
  // failure at any point leaves the previous chain restorable and the
  // not-yet-persisted banks still dirty.
  serve::WriteFileDurably(result.file, bytes, /*retain_prev=*/false);
  manifest_.entries.push_back(std::move(entry));
  try {
    PersistManifest();
  } catch (...) {
    // The member sits on disk unlisted; the retry reuses its seq and simply
    // overwrites it (the dirty set was not cleared, so nothing is lost).
    manifest_.entries.pop_back();
    throw;
  }
  server.MarkCheckpointClean();
  result.chain_length = manifest_.entries.size();
  return result;
}

ChainWriteResult CheckpointChain::Write(serve::FleetServer& server) {
  if (!can_append_ || server.state_installs() != installs_at_full_ ||
      manifest_.entries.size() - 1 >= config_.compact_every) {
    return WriteFull(server);
  }
  return WriteDelta(server);
}

// --- offline tools --------------------------------------------------------

ChainInspection InspectChain(const std::string& directory) {
  ChainInspection report;
  const std::string manifest_path = JoinPath(directory, kManifestFileName);
  for (const std::string& candidate : {manifest_path, manifest_path + ".prev"}) {
    try {
      if (LoadManifestFile(candidate, report.manifest)) {
        report.has_manifest = true;
        break;
      }
      report.errors.push_back(candidate + ": no such file");
    } catch (const ParseError& e) {
      report.errors.push_back(candidate + ": " + e.what());
    }
  }
  if (!report.has_manifest) return report;
  for (const ChainEntry& entry : report.manifest.entries) {
    MemberInfo info;
    info.entry = entry;
    std::string bytes;
    if (!serve::ReadFileBytes(JoinPath(directory, entry.file), bytes)) {
      info.error = "missing";
      report.members.push_back(std::move(info));
      continue;
    }
    info.exists = true;
    info.actual_bytes = bytes.size();
    info.crc_ok = bytes.size() == entry.bytes && Crc32(bytes) == entry.crc32;
    if (!info.crc_ok) {
      info.error = "size/CRC-32 mismatch vs manifest";
      report.members.push_back(std::move(info));
      continue;
    }
    try {
      const MemberImage image = ParseMemberImage(bytes, entry.file);
      if (image.is_delta == entry.is_full) {
        info.error = entry.is_full ? "manifest says full, file is a delta"
                                   : "manifest says delta, file is a full";
      }
      info.shard_count = image.shards.size();
      for (const ShardImage<std::string_view>& shard : image.shards) {
        info.bank_count += shard.banks.size();
      }
    } catch (const ParseError& e) {
      info.error = e.what();
    }
    report.members.push_back(std::move(info));
  }
  return report;
}

std::string FoldChain(const std::string& directory) {
  const Manifest manifest = RequireManifest(directory);
  return SerializeImageAsFull(FoldManifest(directory, manifest));
}

ChainWriteResult CompactChainFiles(const std::string& directory) {
  const Manifest manifest = RequireManifest(directory);
  const FoldImage image = FoldManifest(directory, manifest);
  const std::string bytes = SerializeImageAsFull(image);

  ChainEntry entry = MemberAt(manifest.epoch + 1, 0);
  entry.bytes = bytes.size();
  entry.crc32 = Crc32(bytes);

  ChainWriteResult result;
  result.full = true;
  result.file = JoinPath(directory, entry.file);
  result.bytes = entry.bytes;
  for (const ShardImage<std::string>& shard : image) {
    result.banks_written += shard.banks.size();
  }

  serve::WriteFileDurably(result.file, bytes, /*retain_prev=*/false);
  Manifest compacted;
  compacted.epoch = entry.epoch;
  compacted.entries.push_back(std::move(entry));
  serve::WriteFileDurably(JoinPath(directory, kManifestFileName),
                          EncodeManifest(compacted), /*retain_prev=*/true);
  PruneExcept(directory, compacted);
  result.chain_length = 1;
  return result;
}

}  // namespace cordial::persist
