#include "trace/log_codec.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "persist/binary_io.hpp"

namespace cordial::trace {

namespace {

constexpr const char* kHeader[] = {"time_s", "node",           "npu",
                                   "hbm",    "sid",            "channel",
                                   "pseudo_channel", "bank_group", "bank",
                                   "row",    "col",            "type"};
constexpr std::size_t kFieldCount = sizeof(kHeader) / sizeof(kHeader[0]);

std::uint32_t ParseU32(const std::string& s) {
  std::uint32_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw ParseError("MCE CSV: bad unsigned field '" + s + "'");
  }
  return value;
}

double ParseDouble(const std::string& s) {
  try {
    std::size_t pos = 0;
    double value = std::stod(s, &pos);
    if (pos != s.size()) throw ParseError("MCE CSV: bad double field '" + s + "'");
    return value;
  } catch (const std::invalid_argument&) {
    throw ParseError("MCE CSV: bad double field '" + s + "'");
  } catch (const std::out_of_range&) {
    throw ParseError("MCE CSV: double field out of range '" + s + "'");
  }
}

hbm::ErrorType ParseType(const std::string& s) {
  if (s == "CE") return hbm::ErrorType::kCe;
  if (s == "UEO") return hbm::ErrorType::kUeo;
  if (s == "UER") return hbm::ErrorType::kUer;
  throw ParseError("MCE CSV: unknown error type '" + s + "'");
}

MceRecord ParseFields(const std::vector<std::string>& row) {
  MceRecord r;
  r.time_s = ParseDouble(row[0]);
  r.address.node = ParseU32(row[1]);
  r.address.npu = ParseU32(row[2]);
  r.address.hbm = ParseU32(row[3]);
  r.address.sid = ParseU32(row[4]);
  r.address.channel = ParseU32(row[5]);
  r.address.pseudo_channel = ParseU32(row[6]);
  r.address.bank_group = ParseU32(row[7]);
  r.address.bank = ParseU32(row[8]);
  r.address.row = ParseU32(row[9]);
  r.address.col = ParseU32(row[10]);
  r.type = ParseType(row[11]);
  return r;
}

}  // namespace

namespace {

/// Shortest round-trippable decimal rendering of a double.
std::string FormatTime(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void LogCodec::WriteCsv(const ErrorLog& log, std::ostream& out) {
  CsvWriter writer(out);
  writer.WriteRow(
      std::vector<std::string>(kHeader, kHeader + kFieldCount));
  for (const MceRecord& r : log.records()) {
    const hbm::DeviceAddress& a = r.address;
    writer.WriteRow({FormatTime(r.time_s), std::to_string(a.node),
                     std::to_string(a.npu), std::to_string(a.hbm),
                     std::to_string(a.sid), std::to_string(a.channel),
                     std::to_string(a.pseudo_channel),
                     std::to_string(a.bank_group), std::to_string(a.bank),
                     std::to_string(a.row), std::to_string(a.col),
                     hbm::ErrorTypeName(r.type)});
  }
}

ErrorLog LogCodec::ReadCsv(std::istream& in) {
  const auto rows = CsvReader::ReadAll(in);
  if (rows.empty()) throw ParseError("MCE CSV: missing header");
  ErrorLog log;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != kFieldCount) {
      throw ParseError("MCE CSV: row " + std::to_string(i) + " has " +
                       std::to_string(row.size()) + " fields, expected " +
                       std::to_string(kFieldCount));
    }
    log.Add(ParseFields(row));
  }
  return log;
}

bool LogCodec::IsCsvHeader(const std::string& line) {
  return line.rfind(kHeader[0], 0) == 0;
}

namespace {

/// Little-endian u32 read — explicit byte shifts, so the wire bytes are
/// identical on any host endianness.
std::uint32_t ReadU32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

void LogCodec::AppendBinary(const MceRecord& record, std::string& out) {
  persist::BinaryWriter writer(out);
  writer.F64(record.time_s);
  const hbm::DeviceAddress& a = record.address;
  for (const std::uint32_t field :
       {a.node, a.npu, a.hbm, a.sid, a.channel, a.pseudo_channel,
        a.bank_group, a.bank, a.row, a.col}) {
    writer.U32(field);
  }
  writer.U8(static_cast<std::uint8_t>(record.type));
}

MceRecord LogCodec::ParseBinary(std::string_view bytes) {
  if (bytes.size() < kBinaryRecordBytes) {
    throw ParseError("MCE binary record: truncated (" +
                     std::to_string(bytes.size()) + " bytes, need " +
                     std::to_string(kBinaryRecordBytes) + ")");
  }
  const char* p = bytes.data();
  MceRecord r;
  const std::uint64_t time_bits =
      static_cast<std::uint64_t>(ReadU32(p)) |
      static_cast<std::uint64_t>(ReadU32(p + 4)) << 32;
  std::memcpy(&r.time_s, &time_bits, sizeof(r.time_s));
  hbm::DeviceAddress& a = r.address;
  a.node = ReadU32(p + 8);
  a.npu = ReadU32(p + 12);
  a.hbm = ReadU32(p + 16);
  a.sid = ReadU32(p + 20);
  a.channel = ReadU32(p + 24);
  a.pseudo_channel = ReadU32(p + 28);
  a.bank_group = ReadU32(p + 32);
  a.bank = ReadU32(p + 36);
  a.row = ReadU32(p + 40);
  a.col = ReadU32(p + 44);
  const unsigned char type_byte = static_cast<unsigned char>(p[48]);
  switch (type_byte) {
    case static_cast<unsigned char>(hbm::ErrorType::kCe):
    case static_cast<unsigned char>(hbm::ErrorType::kUeo):
    case static_cast<unsigned char>(hbm::ErrorType::kUer):
      r.type = static_cast<hbm::ErrorType>(type_byte);
      break;
    default:
      throw ParseError("MCE binary record: unknown error type byte " +
                       std::to_string(type_byte));
  }
  return r;
}

MceRecord LogCodec::ParseCsvLine(const std::string& line) {
  // The schema is unquoted numeric/type fields, so a plain comma split is
  // exact.
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  if (!fields.empty() && !fields.back().empty() &&
      fields.back().back() == '\r') {
    fields.back().pop_back();
  }
  if (fields.size() != kFieldCount) {
    throw ParseError("MCE CSV line: " + std::to_string(fields.size()) +
                     " fields, expected " + std::to_string(kFieldCount));
  }
  return ParseFields(fields);
}

MceRecord LogCodec::ParseCsvLine(const std::string& line,
                                 const hbm::AddressCodec& codec) {
  const MceRecord record = ParseCsvLine(line);
  if (!std::isfinite(record.time_s)) {
    throw ParseError("MCE CSV line: non-finite timestamp");
  }
  if (!codec.IsValid(record.address)) {
    throw ParseError("MCE CSV line: address out of topology bounds: " +
                     record.address.ToString());
  }
  return record;
}

}  // namespace cordial::trace
