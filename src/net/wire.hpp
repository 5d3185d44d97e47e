// Wire protocol of the cordial network plane.
//
// Every message travels inside one frame using the same text header as the
// persisted checkpoint format (common/framing, layout v2):
//
//   cordial_net v1 <payload_bytes> crc32=<8 hex digits>\n<payload>
//
// so a frame on the wire carries the same corruption detection as a frame
// at rest, and the decoder is the shared ParseFrameHeaderLine grammar.
// EncodeFrame closes each frame with CloseFrame, the writer under every
// checkpoint frame. The payload's first byte is the message type; the
// rest is fixed-width little-endian fields written and read through
// persist/binary_io.hpp, the codec under checkpoints and models too
// (records use trace::LogCodec's 49-byte binary encoding).
//
// Conversation shape (client = cordial_feed / IngestClient, server =
// IngestServer in front of FleetServer):
//
//   Hello        c→s  opens a connection; server replies Hello.
//   Batch        c→s  seq + MceRecords. Sequence numbers are per
//                     connection, start at 1, and must increase by exactly
//                     1 — a gap means lost or reordered frames and the
//                     batch is rejected rather than silently misapplied.
//   Ack          s→c  batch `seq` fully submitted; `accepted_records` is
//                     the connection's running total.
//   Reject       s→c  kBackpressure: batch `seq` was consumed but the
//                     fleet server refused part of it (its configured
//                     overload policy is lossy); the sequence still
//                     advances and `accepted_records` tells the client how
//                     much actually landed. kBadSequence / kMalformed:
//                     protocol error, nothing applied, connection closes.
//   ExportShard  c→s  drain + serialize one shard; server answers
//                     ShardState (the framed engine payload) and stops
//                     accepting records for that shard.
//   ImportShard  c→s  install a ShardState payload into this server;
//                     answers Imported.
//
// Frames are assembled incrementally by FrameAssembler: feed it raw socket
// bytes, pull complete CRC-verified payloads. Anything malformed — header
// too long, wrong magic or version, missing checksum, implausible length,
// CRC mismatch, unknown message type, short payload — throws ParseError;
// the connection owner closes the socket.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/framing.hpp"
#include "trace/error_log.hpp"

namespace cordial::net {

inline constexpr char kWireMagic[] = "cordial_net";
inline constexpr std::uint32_t kWireVersion = 1;

/// Frames larger than this are rejected before buffering the payload. Large
/// enough for a full shard export; far below common/framing's 1 GiB cap.
inline constexpr std::uint64_t kMaxWireFrameBytes = 256ull * 1024 * 1024;

enum class MessageType : std::uint8_t {
  kHello = 1,
  kBatch = 2,
  kAck = 3,
  kReject = 4,
  kExportShard = 5,
  kShardState = 6,
  kImportShard = 7,
  kImported = 8,
};

enum class RejectReason : std::uint8_t {
  kBackpressure = 1,  ///< transient overload — resend the same sequence
  kBadSequence = 2,   ///< sequence gap; connection is closing
  kMalformed = 3,     ///< undecodable batch; connection is closing
};

/// Human-readable reject reason for logs and error strings.
std::string_view RejectReasonName(RejectReason reason);

struct Hello {
  std::uint32_t protocol_version = kWireVersion;
};

struct Batch {
  std::uint64_t sequence = 0;  ///< per-connection, starts at 1, step 1
  std::vector<trace::MceRecord> records;
};

struct Ack {
  std::uint64_t sequence = 0;
  std::uint64_t accepted_records = 0;  ///< connection-lifetime running total
};

struct Reject {
  std::uint64_t sequence = 0;
  RejectReason reason = RejectReason::kBackpressure;
  std::uint64_t accepted_records = 0;
};

struct ExportShard {
  std::uint32_t shard = 0;
};

struct ShardState {
  std::uint32_t shard = 0;
  std::string state;  ///< framed engine payload (checkpoint section bytes)
};

struct ImportShard {
  std::uint32_t shard = 0;
  std::string state;
};

struct Imported {
  std::uint32_t shard = 0;
};

using Message = std::variant<Hello, Batch, Ack, Reject, ExportShard,
                             ShardState, ImportShard, Imported>;

/// Type tag of a decoded/encodable message (for dispatch and logging).
MessageType TypeOf(const Message& message);

/// Serialize `message` into a complete wire frame (header line + payload).
std::string EncodeFrame(const Message& message);

/// Serialize a Batch frame straight from a record span — the feeder hot
/// path. Byte-identical to EncodeFrame(Batch{sequence, <records copy>})
/// without materialising the copy.
std::string EncodeBatchFrame(std::uint64_t sequence,
                             std::span<const trace::MceRecord> records);

/// Decode one frame payload (the bytes FrameAssembler::Next yields).
/// Throws ParseError on an unknown type byte or malformed fields.
Message DecodeMessage(std::string_view payload);

/// Incremental frame decoder for a byte stream. Feed raw socket bytes with
/// Append; each Next() call yields at most one complete, CRC-verified
/// payload. Malformed input throws ParseError and the assembler must be
/// discarded with its connection.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::uint64_t max_frame_bytes = kMaxWireFrameBytes);

  void Append(std::string_view bytes);

  /// Move the next complete frame's payload into `payload` and return true;
  /// false when more bytes are needed.
  bool Next(std::string& payload);

  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::uint64_t max_frame_bytes_;
  std::string buffer_;
  bool have_header_ = false;
  FrameHeader header_;
  std::size_t payload_start_ = 0;  ///< offset just past the header '\n'
};

}  // namespace cordial::net
