// Versioned magic + length + checksum framing for persisted streams and
// wire messages.
//
// Every model file, checkpoint member, chain manifest and network message
// starts with one header line (layout v2):
//
//   <magic> v<version> <payload_bytes> crc32=<8 hex digits>\n
//
// followed by exactly payload_bytes of payload, whose CRC-32 (IEEE,
// reflected — the zlib/PNG polynomial) must match the header. The crc32
// field is mandatory: a header without it (the checksum-less layout v1 of
// pre-CRC builds) is a ParseError, and so is anything after the byte count
// other than a well-formed crc32 token — a bit flip inside the header can
// never yield an unchecked frame.
//
// The header makes the failure modes distinguishable at load time: a stream
// that is not ours at all (wrong magic), a stream written by an
// incompatible build (version mismatch), a stream cut short mid-write
// (length mismatch), and a stream whose bytes rotted at rest or in transit
// (checksum mismatch) — each rejected with a ParseError naming the
// expectation. Frames nest: a checkpoint frame's payload can itself contain
// framed engine sections, each carrying its own checksum.
//
// Payloads are binary, written and read through one codec,
// persist/binary_io.hpp (a fleet checkpoint's payload leads with one text
// line, "shards <n>", serve/checkpoint.hpp). This file frames bytes and
// knows nothing of what they hold.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cordial {

/// On-wire header layout generation (bumped when the header line itself
/// changes shape). v2 added the crc32 field; v1 frames are refused.
inline constexpr std::uint32_t kFramingLayoutVersion = 2;

/// Upper bound on a single frame's payload. A parsed length above this is a
/// corrupt header, rejected before any allocation — a flipped bit in the
/// byte count must produce a ParseError, not a bad_alloc.
inline constexpr std::uint64_t kMaxFramePayloadBytes =
    1ull * 1024 * 1024 * 1024;  // 1 GiB

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `data` —
/// the zlib/PNG checksum. On an x86 CPU with PCLMULQDQ it runs a
/// carry-less-multiply folding kernel, chosen once per process; elsewhere,
/// and for inputs under 64 bytes, a slice-by-8 table loop. Both give the
/// same value for every input.
std::uint32_t Crc32(std::string_view data);

/// CRC-32 of the concatenation A·B, from crc_a = Crc32(A), crc_b = Crc32(B)
/// and B's length, without reading a byte of either: zlib's crc32_combine,
/// which carries A's CRC over `len_b` zero bytes by multiplying it with
/// x^(8·len_b) modulo the polynomial in GF(2). O(log len_b).
std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b);

namespace detail {
/// The two implementations behind Crc32, reachable one by one so a test
/// can pin them equal. Not for callers: Crc32 picks between them.
std::uint32_t Crc32SliceBy8(std::string_view data);
/// True on an x86 CPU with PCLMULQDQ and SSE4.1, false on any other.
bool Crc32PclmulSupported();
/// The folding kernel (slice-by-8 below 64 bytes and for the tail after
/// the last whole 16-byte block). Requires Crc32PclmulSupported().
std::uint32_t Crc32Pclmul(std::string_view data);
}  // namespace detail

/// One parsed header line — the shared grammar between the frame reader
/// (ReadFramedView) and the network plane's incremental frame assembler
/// (net::FrameAssembler), which must learn the payload length before the
/// payload has arrived.
struct FrameHeader {
  std::string magic;
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t crc32 = 0;
};

/// Parse one header line (the bytes before the '\n', exclusive). Throws
/// ParseError on anything that is not a well-formed layout-v2 header:
/// missing fields (the crc32 field included), a malformed version or
/// checksum token, or a payload length above kMaxFramePayloadBytes. Performs no magic/version
/// expectation checks — callers compare against what they expect so the
/// error can name both sides.
FrameHeader ParseFrameHeaderLine(std::string_view line);

/// The layout-v2 header line (newline included) that frames `payload_bytes`
/// bytes whose CRC-32 is `crc32`.
std::string FrameHeaderLine(std::string_view magic, std::uint32_t version,
                            std::uint64_t payload_bytes, std::uint32_t crc32);

/// The in-place frame writer: the bytes `out[payload_start, out.size())`
/// become the payload of one layout-v2 frame, its header inserted in front
/// of them. A member is encoded straight into one buffer this way, nested
/// frames included — no payload is built in a string of its own and copied.
/// Returns the CRC-32 of the whole frame, header line included, combined
/// from the payload's: a frame nested in another's payload hands its CRC
/// up instead of being read again.
std::uint32_t CloseFrame(std::string& out, std::size_t payload_start,
                         std::string_view magic, std::uint32_t version);
/// CloseFrame over a payload whose CRC-32 the caller already has, combined
/// from its pieces' (Crc32Combine): no payload byte is read.
std::uint32_t CloseFrame(std::string& out, std::size_t payload_start,
                         std::string_view magic, std::uint32_t version,
                         std::uint32_t payload_crc);

/// The frame reader, over bytes in memory: reads the frame at the very
/// front of `in` (no leading whitespace) and returns a view of its payload
/// inside `in`'s bytes, advancing `in` past the frame. Throws ParseError
/// when the magic differs, the header is malformed, the version is not
/// `expected_version`, the promised length is implausible (>
/// kMaxFramePayloadBytes) or beyond the bytes left, or the payload's
/// CRC-32 does not match the header's — checked before any payload byte is
/// returned — and when the common.framing.read failpoint fires.
std::string_view ReadFramedView(std::string_view& in, const std::string& magic,
                                std::uint32_t expected_version);

/// The trailing-bytes rule: `rest` — what follows a model's or a chain
/// member's frame, or a fleet payload's last shard frame — must be empty.
/// ParseError naming `where` and the byte count.
void ExpectNoTrailingBytes(std::string_view rest, const std::string& where);

/// Magic of the frame at the front of `bytes`: the token before the first
/// space, tab or newline, at most 64 bytes (empty when `bytes` is). A view
/// into `bytes`; ReadFramedView checks its magic through it.
std::string_view PeekMagic(std::string_view bytes);

}  // namespace cordial
