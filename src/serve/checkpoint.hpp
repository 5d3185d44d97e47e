// Checkpoint framing constants and the crash-safe file helpers the
// checkpoint chain (persist/chain.hpp) writes and reads its files with.
//
// A fleet checkpoint is one frame (common/framing.hpp) whose payload holds
// the line "shards <n>\n" followed by each shard engine's own framed state,
// in shard order, and nothing else. Bytes after the payload's last shard
// frame are a ParseError (the trailing-bytes rule), and so are bytes after
// the frame of a member handed over whole (FleetServer::RestoreCheckpoint
// and ApplyDeltaCheckpoint). Frames nest, so every section self-describes
// its version, length and CRC-32, and a truncated or bit-rotted member is
// rejected rather than half-loaded.
//
// Crash-consistency contract of WriteFileDurably, the one write path for
// chain members and manifests:
//   1. the bytes are written to `<path>.tmp` and fsync'd — the data is on
//      disk before anything points at it;
//   2. with retain_prev, the previous `<path>` (if any) is retained as
//      `<path>.prev`, so one older generation survives a corrupting write;
//   3. `<path>.tmp` is renamed over `<path>` (atomic within a filesystem);
//   4. the containing directory is fsync'd, making the rename itself
//      durable — without this a power cut can roll the directory entry
//      back to the old file even though the data blocks were flushed.
// On any failure before the rename the tmp file is unlinked and
// ContractViolation is thrown; a failed directory fsync throws too, with the
// new file already in place. A crash at any instant leaves either the old
// complete file or the new complete file at `<path>`, never a torn one.
//
// Every step is wired with a failpoint (common/failpoint.hpp) so the
// failure paths stay testable: serve.checkpoint.{open,write,fsync,rename,
// dirsync} make the corresponding syscall report EIO, and
// serve.checkpoint.crash_before_rename power-cuts the process (::_exit)
// after the tmp file is durable but before it is published.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cordial::serve {

inline constexpr char kFleetCheckpointMagic[] = "cordial_fleet_checkpoint";
inline constexpr std::uint32_t kFleetCheckpointVersion = 1;

/// Fleet-wide delta checkpoint frame: the same "shards N" + nested engine
/// frame layout as a full checkpoint, but each nested frame is a
/// cordial_engine_delta carrying only that shard's dirty banks.
inline constexpr char kFleetDeltaMagic[] = "cordial_fleet_delta";
inline constexpr std::uint32_t kFleetDeltaVersion = 1;

/// The "shards <n>\n" line a fleet payload (full or delta) starts with.
std::string ShardCountLine(std::size_t shards);
/// Consume a ShardCountLine from the front of `payload` and return its n.
/// ParseError naming `context` when the line is malformed.
std::uint64_t TakeShardCount(std::string_view& payload,
                             const std::string& context);
/// Durably publish `bytes` at `path` (the contract above). With
/// `retain_prev` the previous `<path>` survives as `<path>.prev` (step 2) —
/// and the replacement of an older `.prev` is itself atomic (link to
/// `<path>.prev.tmp`, then rename), so no instant exists where the fallback
/// generation is missing. Chain manifests pass retain_prev=true; members
/// pass false: their history lives in the chain itself, and a stray `.prev`
/// would only confuse the manifest. Throws ContractViolation on failure;
/// the tmp file is removed, `path` and `<path>.prev` are left as they were.
void WriteFileDurably(const std::string& path, std::string_view bytes,
                      bool retain_prev);

/// Read the whole file at `path` into `bytes` with one exact-size read (a
/// directory or other non-regular file reads as empty). Returns false when
/// it cannot be opened. Chain members are read this way and restored from
/// the view, never through a stream.
bool ReadFileBytes(const std::string& path, std::string& bytes);

}  // namespace cordial::serve
