#include "net/wire.hpp"

#include "common/check.hpp"
#include "persist/binary_io.hpp"
#include "trace/log_codec.hpp"

namespace cordial::net {

namespace {

/// Header lines are tiny ("cordial_net v1 <len> crc32=xxxxxxxx"); a stream
/// with no '\n' inside this bound is not speaking the protocol.
constexpr std::size_t kMaxHeaderLineBytes = 128;

/// Room for the header line CloseFrame puts in front of a payload
/// ("cordial_net v1 <len> crc32=xxxxxxxx\n"), so the insert moves the
/// payload within the buffer instead of reallocating it.
constexpr std::size_t kHeaderReserveBytes = 64;

void AppendBatchPayload(std::uint64_t sequence,
                        std::span<const trace::MceRecord> records,
                        std::string& payload) {
  payload.reserve(kHeaderReserveBytes + payload.size() + 8 + 4 +
                  records.size() * trace::LogCodec::kBinaryRecordBytes);
  persist::BinaryWriter out(payload);
  out.U64(sequence);
  out.U32(static_cast<std::uint32_t>(records.size()));
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
  persist::BinaryWriter out(payload);
  out.U8(static_cast<std::uint8_t>(TypeOf(message)));
  struct Visitor {
    std::string& payload;
    persist::BinaryWriter& out;
    void operator()(const Hello& m) { out.U32(m.protocol_version); }
    void operator()(const Batch& m) {
      AppendBatchPayload(m.sequence, m.records, payload);
    }
    void operator()(const Ack& m) {
      out.U64(m.sequence);
      out.U64(m.accepted_records);
    }
    void operator()(const Reject& m) {
      out.U64(m.sequence);
      out.U8(static_cast<std::uint8_t>(m.reason));
      out.U64(m.accepted_records);
    }
    void operator()(const ExportShard& m) { out.U32(m.shard); }
    void operator()(const ShardState& m) { Shard(m.shard, m.state); }
    void operator()(const ImportShard& m) { Shard(m.shard, m.state); }
    void operator()(const Imported& m) { out.U32(m.shard); }
    /// A shard id, then the state's u64 length and its bytes.
    void Shard(std::uint32_t shard, const std::string& state) {
      payload.reserve(kHeaderReserveBytes + payload.size() + 4 + 8 +
                      state.size());
      out.U32(shard);
      out.U64(state.size());
      out.Bytes(state);
    }
  };
  std::visit(Visitor{payload, out}, message);
  CloseFrame(payload, 0, kWireMagic, kWireVersion);
  return payload;
}

std::string EncodeBatchFrame(std::uint64_t sequence,
                             std::span<const trace::MceRecord> records) {
  std::string payload;
  persist::BinaryWriter(payload).U8(
      static_cast<std::uint8_t>(MessageType::kBatch));
  AppendBatchPayload(sequence, records, payload);
  CloseFrame(payload, 0, kWireMagic, kWireVersion);
  return payload;
}

Message DecodeMessage(std::string_view payload) {
  persist::BinaryReader in(payload, "wire message");
  const std::uint8_t type = in.U8();
  Message message;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello:
      message = Hello{in.U32()};
      break;
    case MessageType::kBatch: {
      Batch m;
      m.sequence = in.U64();
      const std::uint32_t count = in.U32();
      if (in.remaining() !=
          std::uint64_t{count} * trace::LogCodec::kBinaryRecordBytes) {
        in.Fail("batch record bytes do not match count");
      }
      m.records.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        m.records.push_back(trace::LogCodec::ParseBinary(
            in.Bytes(trace::LogCodec::kBinaryRecordBytes)));
      }
      message = std::move(m);
      break;
    }
    case MessageType::kAck: {
      Ack m;
      m.sequence = in.U64();
      m.accepted_records = in.U64();
      message = m;
      break;
    }
    case MessageType::kReject: {
      Reject m;
      m.sequence = in.U64();
      const std::uint8_t reason = in.U8();
      if (reason < 1 || reason > 3) {
        in.Fail("unknown reject reason " + std::to_string(reason));
      }
      m.reason = static_cast<RejectReason>(reason);
      m.accepted_records = in.U64();
      message = m;
      break;
    }
    case MessageType::kExportShard:
      message = ExportShard{in.U32()};
      break;
    case MessageType::kShardState: {
      ShardState m;
      m.shard = in.U32();
      m.state = std::string(in.Bytes(in.Count(1)));
      message = std::move(m);
      break;
    }
    case MessageType::kImportShard: {
      ImportShard m;
      m.shard = in.U32();
      m.state = std::string(in.Bytes(in.Count(1)));
      message = std::move(m);
      break;
    }
    case MessageType::kImported:
      message = Imported{in.U32()};
      break;
    default:
      in.Fail("unknown type byte " + std::to_string(type));
  }
  in.ExpectEnd();
  return message;
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
