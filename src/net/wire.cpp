#include "net/wire.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "trace/log_codec.hpp"

namespace cordial::net {

namespace {

/// Header lines are tiny ("cordial_net v1 <len> crc32=xxxxxxxx"); a stream
/// with no '\n' inside this bound is not speaking the protocol.
constexpr std::size_t kMaxHeaderLineBytes = 128;

void AppendU8(std::uint8_t value, std::string& out) {
  out.push_back(static_cast<char>(value));
}

void AppendU32(std::uint32_t value, std::string& out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void AppendU64(std::uint64_t value, std::string& out) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

/// Bounds-checked little-endian reader over one frame payload.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t ReadU8() { return Take(1)[0]; }

  std::uint32_t ReadU32() {
    const auto* p = Take(4);
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i) value = (value << 8) | p[i];
    return value;
  }

  std::uint64_t ReadU64() {
    const auto* p = Take(8);
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i) value = (value << 8) | p[i];
    return value;
  }

  std::string_view ReadBytes(std::uint64_t count) {
    if (count > Remaining()) Underrun();
    const std::string_view view = bytes_.substr(offset_, count);
    offset_ += static_cast<std::size_t>(count);
    return view;
  }

  std::uint64_t Remaining() const { return bytes_.size() - offset_; }

  void ExpectEnd(const char* what) const {
    if (offset_ != bytes_.size()) {
      throw ParseError(std::string("wire message: trailing bytes after ") +
                       what);
    }
  }

 private:
  const unsigned char* Take(std::size_t count) {
    if (count > Remaining()) Underrun();
    const auto* p =
        reinterpret_cast<const unsigned char*>(bytes_.data()) + offset_;
    offset_ += count;
    return p;
  }

  [[noreturn]] void Underrun() const {
    throw ParseError("wire message: truncated payload");
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

/// Wrap a finished payload in its header line. Byte-identical to
/// common/framing's WriteFramed, but built directly into the returned
/// string — the feeder hot path encodes every batch through here, and an
/// ostringstream round trip costs two extra payload copies.
std::string SealFrame(const std::string& payload) {
  char header[64];
  const int header_len =
      std::snprintf(header, sizeof header, "%s v%u %zu crc32=%08x\n",
                    kWireMagic, kWireVersion, payload.size(), Crc32(payload));
  std::string frame;
  frame.reserve(static_cast<std::size_t>(header_len) + payload.size());
  frame.append(header, static_cast<std::size_t>(header_len));
  frame.append(payload);
  return frame;
}

void AppendBatchPayload(std::uint64_t sequence,
                        std::span<const trace::MceRecord> records,
                        std::string& payload) {
  payload.reserve(payload.size() + 8 + 4 +
                  records.size() * trace::LogCodec::kBinaryRecordBytes);
  AppendU64(sequence, payload);
  AppendU32(static_cast<std::uint32_t>(records.size()), payload);
  for (const trace::MceRecord& r : records) {
    trace::LogCodec::AppendBinary(r, payload);
  }
}

}  // namespace

std::string_view RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kBackpressure:
      return "backpressure";
    case RejectReason::kBadSequence:
      return "bad-sequence";
    case RejectReason::kMalformed:
      return "malformed";
  }
  return "unknown";
}

MessageType TypeOf(const Message& message) {
  struct Visitor {
    MessageType operator()(const Hello&) { return MessageType::kHello; }
    MessageType operator()(const Batch&) { return MessageType::kBatch; }
    MessageType operator()(const Ack&) { return MessageType::kAck; }
    MessageType operator()(const Reject&) { return MessageType::kReject; }
    MessageType operator()(const ExportShard&) {
      return MessageType::kExportShard;
    }
    MessageType operator()(const ShardState&) {
      return MessageType::kShardState;
    }
    MessageType operator()(const ImportShard&) {
      return MessageType::kImportShard;
    }
    MessageType operator()(const Imported&) { return MessageType::kImported; }
  };
  return std::visit(Visitor{}, message);
}

std::string EncodeFrame(const Message& message) {
  std::string payload;
  AppendU8(static_cast<std::uint8_t>(TypeOf(message)), payload);
  struct Visitor {
    std::string& payload;
    void operator()(const Hello& m) { AppendU32(m.protocol_version, payload); }
    void operator()(const Batch& m) {
      AppendBatchPayload(m.sequence, m.records, payload);
    }
    void operator()(const Ack& m) {
      AppendU64(m.sequence, payload);
      AppendU64(m.accepted_records, payload);
    }
    void operator()(const Reject& m) {
      AppendU64(m.sequence, payload);
      AppendU8(static_cast<std::uint8_t>(m.reason), payload);
      AppendU64(m.accepted_records, payload);
    }
    void operator()(const ExportShard& m) { AppendU32(m.shard, payload); }
    void operator()(const ShardState& m) {
      AppendU32(m.shard, payload);
      AppendU64(m.state.size(), payload);
      payload.append(m.state);
    }
    void operator()(const ImportShard& m) {
      AppendU32(m.shard, payload);
      AppendU64(m.state.size(), payload);
      payload.append(m.state);
    }
    void operator()(const Imported& m) { AppendU32(m.shard, payload); }
  };
  std::visit(Visitor{payload}, message);
  return SealFrame(payload);
}

std::string EncodeBatchFrame(std::uint64_t sequence,
                             std::span<const trace::MceRecord> records) {
  std::string payload;
  AppendU8(static_cast<std::uint8_t>(MessageType::kBatch), payload);
  AppendBatchPayload(sequence, records, payload);
  return SealFrame(payload);
}

Message DecodeMessage(std::string_view payload) {
  Cursor cursor(payload);
  const std::uint8_t type = cursor.ReadU8();
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello: {
      Hello m;
      m.protocol_version = cursor.ReadU32();
      cursor.ExpectEnd("hello");
      return m;
    }
    case MessageType::kBatch: {
      Batch m;
      m.sequence = cursor.ReadU64();
      const std::uint32_t count = cursor.ReadU32();
      if (cursor.Remaining() !=
          std::uint64_t{count} * trace::LogCodec::kBinaryRecordBytes) {
        throw ParseError(
            "wire message: batch record bytes do not match count");
      }
      m.records.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        m.records.push_back(trace::LogCodec::ParseBinary(
            cursor.ReadBytes(trace::LogCodec::kBinaryRecordBytes)));
      }
      return m;
    }
    case MessageType::kAck: {
      Ack m;
      m.sequence = cursor.ReadU64();
      m.accepted_records = cursor.ReadU64();
      cursor.ExpectEnd("ack");
      return m;
    }
    case MessageType::kReject: {
      Reject m;
      m.sequence = cursor.ReadU64();
      const std::uint8_t reason = cursor.ReadU8();
      if (reason < 1 || reason > 3) {
        throw ParseError("wire message: unknown reject reason " +
                         std::to_string(reason));
      }
      m.reason = static_cast<RejectReason>(reason);
      m.accepted_records = cursor.ReadU64();
      cursor.ExpectEnd("reject");
      return m;
    }
    case MessageType::kExportShard: {
      ExportShard m;
      m.shard = cursor.ReadU32();
      cursor.ExpectEnd("export-shard");
      return m;
    }
    case MessageType::kShardState: {
      ShardState m;
      m.shard = cursor.ReadU32();
      m.state = std::string(cursor.ReadBytes(cursor.ReadU64()));
      cursor.ExpectEnd("shard-state");
      return m;
    }
    case MessageType::kImportShard: {
      ImportShard m;
      m.shard = cursor.ReadU32();
      m.state = std::string(cursor.ReadBytes(cursor.ReadU64()));
      cursor.ExpectEnd("import-shard");
      return m;
    }
    case MessageType::kImported: {
      Imported m;
      m.shard = cursor.ReadU32();
      cursor.ExpectEnd("imported");
      return m;
    }
  }
  throw ParseError("wire message: unknown type byte " + std::to_string(type));
}

FrameAssembler::FrameAssembler(std::uint64_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameAssembler::Append(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

bool FrameAssembler::Next(std::string& payload) {
  if (!have_header_) {
    const std::size_t newline = buffer_.find('\n');
    if (newline == std::string::npos) {
      if (buffer_.size() > kMaxHeaderLineBytes) {
        throw ParseError("wire frame: header line exceeds " +
                         std::to_string(kMaxHeaderLineBytes) + " bytes");
      }
      return false;
    }
    if (newline > kMaxHeaderLineBytes) {
      throw ParseError("wire frame: header line exceeds " +
                       std::to_string(kMaxHeaderLineBytes) + " bytes");
    }
    header_ = ParseFrameHeaderLine(
        std::string_view(buffer_).substr(0, newline));
    if (header_.magic != kWireMagic) {
      throw ParseError("wire frame: bad magic '" + header_.magic +
                       "', expected '" + kWireMagic + "'");
    }
    if (header_.version != kWireVersion) {
      throw ParseError("wire frame: version v" +
                       std::to_string(header_.version) + ", expected v" +
                       std::to_string(kWireVersion));
    }
    if (header_.payload_bytes > max_frame_bytes_) {
      throw ParseError("wire frame: payload of " +
                       std::to_string(header_.payload_bytes) +
                       " bytes exceeds limit of " +
                       std::to_string(max_frame_bytes_));
    }
    payload_start_ = newline + 1;
    have_header_ = true;
  }
  if (buffer_.size() - payload_start_ < header_.payload_bytes) return false;

  payload.assign(buffer_, payload_start_,
                 static_cast<std::size_t>(header_.payload_bytes));
  if (Crc32(payload) != header_.crc32) {
    throw ParseError("wire frame: checksum mismatch");
  }
  buffer_.erase(0, payload_start_ +
                       static_cast<std::size_t>(header_.payload_bytes));
  have_header_ = false;
  return true;
}

}  // namespace cordial::net
