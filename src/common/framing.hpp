// Versioned magic + length + checksum framing for persisted streams.
//
// Every model file and engine snapshot starts with one header line. Layout
// v2 (current) is
//
//   <magic> v<version> <payload_bytes> crc32=<8 hex digits>\n
//
// followed by exactly payload_bytes of payload, whose CRC-32 (IEEE,
// reflected — the zlib/PNG polynomial) must match the header. Layout v1
// lacked the crc32 field:
//
//   <magic> v<version> <payload_bytes>\n
//
// The header makes the failure modes distinguishable at load time: a stream
// that is not ours at all (wrong magic), a stream written by an
// incompatible build (version mismatch), a stream cut short mid-write
// (length mismatch), and a stream whose bytes rotted at rest or in transit
// (checksum mismatch) — each rejected with a ParseError naming the
// expectation. Frames nest: a checkpoint frame's payload can itself contain
// framed engine sections, each carrying its own checksum.
//
// Migration: ReadFramed still accepts v1 (checksum-less) frames so
// checkpoints written by older builds keep restoring; each such read is
// tallied in FramingStats and warned once per magic on stderr, so operators
// learn their state predates corruption detection. A malformed checksum
// field is NOT treated as v1 — anything after the byte count other than a
// well-formed crc32 token is a ParseError, so a bit flip inside the header
// cannot demote a checksummed frame to an unchecked one.
//
// The token helpers below are the shared text codec for snapshot payloads:
// whitespace-separated tokens, doubles rendered with %.17g so every value
// round-trips bit-exactly (the same convention the ml model serialization
// and the MCE CSV codec use). Non-finite doubles round-trip too (as the
// tokens nan/-nan/inf/-inf): a poisoned stat must survive a
// checkpoint/restore cycle rather than brick it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>

namespace cordial {

/// On-wire header layout generation (bumped when the header line itself
/// changes shape). v2 added the crc32 field; v1 frames remain readable.
inline constexpr std::uint32_t kFramingLayoutVersion = 2;

/// Upper bound on a single frame's payload. A parsed length above this is a
/// corrupt header, rejected before any allocation — a flipped bit in the
/// byte count must produce a ParseError, not a bad_alloc.
inline constexpr std::uint64_t kMaxFramePayloadBytes =
    1ull * 1024 * 1024 * 1024;  // 1 GiB

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `data` —
/// the zlib/PNG checksum.
std::uint32_t Crc32(std::string_view data);

/// Running tallies of every frame this process has read, for the
/// warn-and-count legacy migration. Monotonic, thread-safe.
struct FramingStats {
  std::uint64_t checksummed_frames_read = 0;  ///< v2 frames (CRC verified)
  std::uint64_t legacy_frames_read = 0;       ///< v1 frames (no CRC; warned)
};
FramingStats GetFramingStats();

/// One parsed header line — the shared grammar between the stream reader
/// (ReadFramed) and the network plane's incremental frame assembler
/// (net::FrameAssembler), which sees a byte buffer instead of an istream
/// and must learn the payload length before the payload has arrived.
struct FrameHeader {
  std::string magic;
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  bool has_checksum = false;  ///< false = layout v1 (checksum-less)
  std::uint32_t crc32 = 0;    ///< meaningful only when has_checksum
};

/// Parse one header line (the bytes before the '\n', exclusive). Throws
/// ParseError on anything that is not a well-formed layout v1/v2 header:
/// missing fields, a malformed version or checksum token, or a payload
/// length above kMaxFramePayloadBytes. Performs no magic/version
/// expectation checks — callers compare against what they expect so the
/// error can name both sides.
FrameHeader ParseFrameHeaderLine(std::string_view line);

/// The layout-v2 header line (newline included) that frames `payload_bytes`
/// bytes whose CRC-32 is `crc32`.
std::string FrameHeaderLine(std::string_view magic, std::uint32_t version,
                            std::uint64_t payload_bytes, std::uint32_t crc32);

/// Write `payload` wrapped in a `<magic> v<version> <bytes> crc32=<hex>`
/// header (layout v2).
void WriteFramed(std::ostream& out, const std::string& magic,
                 std::uint32_t version, const std::string& payload);

/// The in-place frame writer: the bytes `out[payload_start, out.size())`
/// become the payload of one layout-v2 frame, its header inserted in front
/// of them. A member is encoded straight into one buffer this way, nested
/// frames included — no payload is built in a string of its own and copied.
void CloseFrame(std::string& out, std::size_t payload_start,
                std::string_view magic, std::uint32_t version);

/// Read one frame and return its payload. Throws ParseError when the magic
/// differs, the version is not `expected_version`, the payload is shorter
/// than the header promised, the promised length is implausible
/// (> kMaxFramePayloadBytes, or beyond the stream's remaining bytes when it
/// is seekable), or the payload's CRC-32 does not match the header's.
/// Checksum-less layout-v1 frames are accepted with a counted warning.
std::string ReadFramed(std::istream& in, const std::string& magic,
                       std::uint32_t expected_version);

/// ReadFramed for a magic whose payload exists in several accepted
/// versions (e.g. engine snapshots: v1 text, v2 binary). Identical checks,
/// except the frame version must be one of `accepted_versions`; the version
/// actually found is stored through `version_out` (when non-null) so the
/// caller can dispatch to the right payload parser.
std::string ReadFramedAny(std::istream& in, const std::string& magic,
                          std::initializer_list<std::uint32_t> accepted_versions,
                          std::uint32_t* version_out = nullptr);

/// The view frame reader: ReadFramedAny over bytes already in memory. Reads
/// the frame at the very front of `in` (no leading whitespace), makes the
/// same checks through the same helpers — header, version, length against
/// the bytes left, CRC-32 before any payload byte is returned, the v1
/// count and warning, the common.framing.read failpoint — and returns a
/// view of the payload inside `in`'s bytes, advancing `in` past the frame.
std::string_view ReadFramedView(
    std::string_view& in, const std::string& magic,
    std::initializer_list<std::uint32_t> accepted_versions,
    std::uint32_t* version_out = nullptr);

/// Magic of the frame at the front of `bytes`: the token before the first
/// space, tab or newline, at most 64 bytes (empty when `bytes` is). A view
/// into `bytes`; ReadFramedView checks its magic through it.
std::string_view PeekMagic(std::string_view bytes);

// --- token codec (shared by the snapshot serializers) ---------------------

/// Append a lossless %.17g rendering of `value`. Non-finite values render
/// as nan/-nan/inf/-inf and round-trip through ReadDoubleToken.
void WriteDoubleToken(std::ostream& out, double value);

/// Read one double token; ParseError mentioning `context` on failure.
/// Accepts the non-finite tokens WriteDoubleToken emits.
double ReadDoubleToken(std::istream& in, const char* context);

/// Read one unsigned integer token; ParseError mentioning `context`.
std::uint64_t ReadU64Token(std::istream& in, const char* context);

/// Read one signed integer token; ParseError mentioning `context`.
std::int64_t ReadI64Token(std::istream& in, const char* context);

/// Consume one token and require it to equal `token`.
void ExpectToken(std::istream& in, const char* token);

}  // namespace cordial
