// Little-endian binary codec primitives: the one payload codec, the
// byte-level layer under the engine-state and delta frames and the chain
// manifest (DESIGN.md §14), the model frames (§16) and the network
// plane's wire messages (§12). Only the 49-byte MCE record and the CSV
// feed (trace::LogCodec) keep a format of their own.
//
// Header-only on purpose: the per-component encoders live next to the
// state they serialize (BankProfile, PredictionEngine, the ml trees and
// ensembles, the wire messages), in libraries that do not link
// cordial_persist. cordial_common already exports the src/ include root,
// so any library can include this without a dependency edge; the persist
// *library* owns the file-level formats (chains, manifests, folding)
// built on top.
//
// Conventions:
//   * fixed-width integers little-endian (u8/u32/u64) — the frame-level
//     fields: lengths, bank keys, the state header;
//   * LEB128 varints (`Var`, zigzag `VarSigned`) for the counts and sizes
//     inside bank blobs, and strictly ascending u32 sequences (rows) as the
//     first value plus positive gaps (`AscendingU32`);
//   * doubles as their raw IEEE-754 bit pattern (via memcpy), so every
//     value — including -0.0, nan/-nan/inf/-inf and signalling payloads —
//     round-trips bit-exactly without any formatting cost; `MaskedF64`
//     omits a double only when its bits are +0.0;
//   * variable-size sequences carry an explicit leading count, and readers
//     must sanity-check counts against remaining() before reserving — a
//     flipped bit in a count must be a ParseError, not a bad_alloc.
//
// BinaryReader throws ParseError (never reads out of bounds) so corrupt
// payloads fail closed through the same exception path as the frame reader;
// the CRC in the enclosing frame catches corruption first in practice, and
// these checks make the codec safe even on an unframed buffer. Decoding is
// canonical: a reader accepts only the bytes its writer emits for some
// value (no overlong varint, no boolean byte but 0/1, no zero gap, no
// present +0.0), so whatever decodes re-encodes to the same bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace cordial::persist {

/// Appends little-endian fields to a std::string buffer.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string& out) : out_(out) {}

  void U8(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }

  void U32(std::uint32_t value) {
    char bytes[4];
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    }
    out_.append(bytes, sizeof(bytes));
  }

  void U64(std::uint64_t value) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    }
    out_.append(bytes, sizeof(bytes));
  }

  void Bool(bool value) { U8(value ? 1 : 0); }

  /// LEB128: seven bits per byte, low group first, high bit = more follow.
  void Var(std::uint64_t value) {
    char bytes[10];
    std::size_t n = 0;
    while (value >= 0x80) {
      bytes[n++] = static_cast<char>((value & 0x7Fu) | 0x80u);
      value >>= 7;
    }
    bytes[n++] = static_cast<char>(value);
    out_.append(bytes, n);
  }

  /// Zigzag varint: small magnitudes of either sign stay one byte.
  void VarSigned(std::int64_t value) {
    Var((static_cast<std::uint64_t>(value) << 1) ^
        static_cast<std::uint64_t>(value >> 63));
  }

  void F64(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }

  /// Doubles behind a presence mask: a varint whose bit i says field i
  /// follows as raw bits. A field is omitted only when its bits are +0.0.
  void MaskedF64(std::initializer_list<double> fields) {
    std::uint64_t mask = 0;
    std::uint64_t bit = 1;
    for (const double field : fields) {
      if (std::bit_cast<std::uint64_t>(field) != 0) mask |= bit;
      bit <<= 1;
    }
    Var(mask);
    for (const double field : fields) {
      if (std::bit_cast<std::uint64_t>(field) != 0) F64(field);
    }
  }

  /// A strictly ascending sequence of u32 values (rows): a varint count,
  /// the first value, then each value's positive gap to its predecessor. A
  /// repeat or a descent is a ContractViolation: it is not a sorted distinct
  /// row set.
  void AscendingU32(std::span<const std::uint32_t> values) {
    Var(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      CORDIAL_CHECK_MSG(i == 0 || values[i] > values[i - 1],
                        "ascending sequence must strictly ascend");
      Var(i == 0 ? values[i] : values[i] - values[i - 1]);
    }
  }

  void Bytes(std::string_view data) { out_.append(data.data(), data.size()); }

  /// Open a u32 length-prefixed section in place: writes a placeholder and
  /// returns its offset for EndLength.
  std::size_t BeginLength() {
    const std::size_t at = out_.size();
    U32(0);
    return at;
  }

  /// Back-patch the placeholder at `at` with the bytes written after it.
  void EndLength(std::size_t at) {
    const auto length = static_cast<std::uint32_t>(out_.size() - at - 4);
    for (int i = 0; i < 4; ++i) {
      out_[at + i] = static_cast<char>((length >> (8 * i)) & 0xFFu);
    }
  }

 private:
  std::string& out_;
};

/// Bounds-checked reader over an in-memory payload. Every accessor throws
/// ParseError naming `context` when fewer bytes remain than the field needs.
class BinaryReader {
 public:
  BinaryReader(std::string_view data, const char* context)
      : data_(data), context_(context) {}

  std::uint8_t U8() {
    Need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t U32() {
    Need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 4;
    return value;
  }

  std::uint64_t U64() {
    Need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  /// A boolean byte: 0 or 1, anything else is corrupt.
  bool Bool() {
    const std::uint8_t byte = U8();
    if (byte > 1) Fail("boolean byte " + std::to_string(byte));
    return byte == 1;
  }

  /// A canonical LEB128 varint: refuses a value past 64 bits and an
  /// overlong encoding (a final zero group after the first byte).
  std::uint64_t Var() {
    std::uint64_t value = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = U8();
      if (shift == 63 && byte > 1) Fail("varint overflows 64 bits");
      value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) {
        if (byte == 0 && shift > 0) Fail("overlong varint");
        return value;
      }
    }
  }

  std::int64_t VarSigned() {
    const std::uint64_t zigzag = Var();
    return static_cast<std::int64_t>(zigzag >> 1) ^
           -static_cast<std::int64_t>(zigzag & 1);
  }

  /// Read MaskedF64 fields into `fields` (absent fields become +0.0).
  /// Refuses mask bits beyond the field count and a present +0.0.
  void MaskedF64(std::initializer_list<double*> fields) {
    const std::uint64_t mask = Var();
    if (fields.size() < 64 && (mask >> fields.size()) != 0) {
      Fail("presence mask bits beyond its " + std::to_string(fields.size()) +
           " field(s)");
    }
    std::uint64_t bit = 1;
    for (double* field : fields) {
      *field = 0.0;
      if ((mask & bit) != 0) {
        *field = F64();
        if (std::bit_cast<std::uint64_t>(*field) == 0) {
          Fail("+0.0 written as a present field");
        }
      }
      bit <<= 1;
    }
  }

  /// Read an AscendingU32 sequence. Refuses a gap of 0 and a value past
  /// UINT32_MAX.
  std::vector<std::uint32_t> AscendingU32() {
    const std::uint64_t count = VarCount(1);
    std::vector<std::uint32_t> values;
    values.reserve(static_cast<std::size_t>(count));
    std::uint64_t value = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t step = Var();
      if (i > 0 && step == 0) Fail("ascending sequence repeats a value");
      if (step > std::numeric_limits<std::uint32_t>::max() - value) {
        Fail("ascending sequence passes UINT32_MAX");
      }
      value += step;
      values.push_back(static_cast<std::uint32_t>(value));
    }
    return values;
  }

  double F64() {
    const std::uint64_t bits = U64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::string_view Bytes(std::size_t n) {
    Need(n);
    const std::string_view view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  /// Read a leading element count and reject it unless `count *
  /// min_bytes_per_element` could still fit in the remaining payload — the
  /// reserve-cap guard for corrupt counts, applied before any allocation.
  std::uint64_t Count(std::size_t min_bytes_per_element) {
    const std::uint64_t count = U64();
    CheckCount(count, min_bytes_per_element);
    return count;
  }

  std::uint32_t Count32(std::size_t min_bytes_per_element) {
    const std::uint32_t count = U32();
    CheckCount(count, min_bytes_per_element);
    return count;
  }

  /// Count, for an element count written as a varint.
  std::uint64_t VarCount(std::size_t min_bytes_per_element) {
    const std::uint64_t count = Var();
    CheckCount(count, min_bytes_per_element);
    return count;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  /// The bytes not read yet, for a decoder that walks them with bounds
  /// checks of its own (the model's tree decoder checks once per node);
  /// it then consumes what it used with Bytes.
  std::string_view rest() const { return data_.substr(pos_); }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// What Fail names, for a reader over a part of these bytes.
  const char* context() const { return context_; }

  /// Require the payload to be fully consumed — trailing garbage after the
  /// last field means the buffer is not what the writer produced.
  void ExpectEnd() const {
    if (!AtEnd()) {
      Fail(std::to_string(remaining()) + " unexpected trailing byte(s)");
    }
  }

  /// Throw a ParseError naming this reader's context.
  [[noreturn]] void Fail(const std::string& what) const {
    throw ParseError(std::string(context_) + ": " + what);
  }

 private:
  void Need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw ParseError(std::string(context_) + ": truncated payload (need " +
                       std::to_string(n) + " byte(s) at offset " +
                       std::to_string(pos_) + ", have " +
                       std::to_string(remaining()) + ")");
    }
  }

  void CheckCount(std::uint64_t count, std::size_t min_bytes_per_element) const {
    if (min_bytes_per_element != 0 &&
        count > remaining() / min_bytes_per_element) {
      throw ParseError(std::string(context_) + ": implausible element count " +
                       std::to_string(count) + " (only " +
                       std::to_string(remaining()) + " payload byte(s) left)");
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  const char* context_;
};

}  // namespace cordial::persist
