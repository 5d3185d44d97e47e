#include "common/framing.hpp"

#include <array>
#include <charconv>
#include <cstdio>

#include "common/check.hpp"
#include "common/failpoint.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#endif

namespace cordial {

namespace {

std::uint32_t ParseVersionToken(const std::string& token,
                                const std::string& magic) {
  if (token.size() < 2 || token[0] != 'v') {
    throw ParseError(magic + ": malformed version token '" + token + "'");
  }
  std::uint32_t version = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') {
      throw ParseError(magic + ": malformed version token '" + token + "'");
    }
    version = version * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return version;
}

/// Everything after the magic token on a header line: " v<version>
/// <bytes> crc32=<8 hex>" is ~40 bytes at the widest legal values; anything
/// longer before the newline is a corrupt header.
constexpr std::size_t kMaxHeaderRestBytes = 64;

/// The longest token PeekMagic returns; every magic of ours is far shorter.
constexpr std::size_t kMaxMagicBytes = 64;

/// Strictly the alphabet FrameHeaderLine emits (%08x): lowercase only. Accepting
/// uppercase would let a bit flip inside the checksum field ('c' ^ 0x20 =
/// 'C') produce a header that still parses to the same CRC value, i.e. a
/// corrupted-but-accepted frame header.
int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// One CRC-32 update step: the register after `n` more bytes at `p`, the
/// register taken and returned without the init/xorout inversion.
using Crc32Update = std::uint32_t (*)(std::uint32_t crc, const unsigned char* p,
                                      std::size_t n);

std::uint32_t SliceBy8Update(std::uint32_t crc, const unsigned char* p,
                             std::size_t n) {
  // Slice-by-8: eight derived tables let one iteration fold eight input
  // bytes, versus one per iteration for the classic single-table form. The
  // polynomial is the reflected 0xEDB88320 (zlib-compatible).
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  while (n >= 8) {
    // Byte-assembled loads keep this endian-independent; compilers emit a
    // single 32-bit load on little-endian targets.
    const std::uint32_t lo = static_cast<std::uint32_t>(p[0]) |
                             static_cast<std::uint32_t>(p[1]) << 8 |
                             static_cast<std::uint32_t>(p[2]) << 16 |
                             static_cast<std::uint32_t>(p[3]) << 24;
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    crc ^= lo;
    crc = tables[7][crc & 0xFFu] ^ tables[6][(crc >> 8) & 0xFFu] ^
          tables[5][(crc >> 16) & 0xFFu] ^ tables[4][crc >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = tables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define CORDIAL_CRC32_PCLMUL 1

#define CORDIAL_PCLMUL __attribute__((target("pclmul,sse4.1")))

CORDIAL_PCLMUL inline __m128i Load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One lane carried forward over a fixed distance and added to `next`:
/// x.low·k.low ⊕ x.high·k.high ⊕ next, where k holds the two constants of
/// that distance.
CORDIAL_PCLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Folding CRC-32 over carry-less multiplies: Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), with the white paper's constants for the reflected
/// polynomial 0xEDB88320 (the ones Linux's crc32-pclmul uses too). Four
/// 128-bit lanes fold 64 bytes a step; the lanes fold into one, then each
/// remaining 16-byte block, and a Barrett reduction takes the 128-bit
/// remainder to the 32-bit register. Inputs under 64 bytes and the bytes
/// after the last whole 16-byte block go through slice-by-8.
CORDIAL_PCLMUL std::uint32_t PclmulUpdate(std::uint32_t crc,
                                          const unsigned char* p,
                                          std::size_t n) {
  if (n < 64) return SliceBy8Update(crc, p, n);
  // _mm_set_epi64x takes {high, low}. R1/R2 fold over 512 bits, R3/R4
  // over 128; R5 takes 64 bits to 32; μ and P′ are the Barrett pair.
  const __m128i r2r1 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i r4r3 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i r5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, r2r1, Load128(p));
    x2 = Fold(x2, r2r1, Load128(p + 16));
    x3 = Fold(x3, r2r1, Load128(p + 32));
    x4 = Fold(x4, r2r1, Load128(p + 48));
  }
  x1 = Fold(x1, r4r3, x2);
  x1 = Fold(x1, r4r3, x3);
  x1 = Fold(x1, r4r3, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, r4r3, Load128(p));

  // 128 → 64 bits (appending the 32 zero bits the register implies), 64 →
  // 32, then the bit-reflected Barrett reduction by μ and P′.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, r4r3, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), r5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_p, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
  crc = static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
  return SliceBy8Update(crc, p, n);
}

#undef CORDIAL_PCLMUL
#endif

std::uint32_t Finish(Crc32Update update, std::string_view data) {
  return update(0xFFFFFFFFu,
                reinterpret_cast<const unsigned char*>(data.data()),
                data.size()) ^
         0xFFFFFFFFu;
}

}  // namespace

namespace detail {

bool Crc32PclmulSupported() {
#ifdef CORDIAL_CRC32_PCLMUL
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t Crc32SliceBy8(std::string_view data) {
  return Finish(&SliceBy8Update, data);
}

std::uint32_t Crc32Pclmul(std::string_view data) {
  CORDIAL_CHECK(Crc32PclmulSupported());
#ifdef CORDIAL_CRC32_PCLMUL
  return Finish(&PclmulUpdate, data);
#else
  return 0;  // not reached: the check above fails
#endif
}

}  // namespace detail

std::uint32_t Crc32(std::string_view data) {
  // Every frame is checksummed where it is written and again where it is
  // read: model loads, each checkpoint member and manifest, both ends of
  // every wire frame. The CPU is asked once per process which kernel runs.
  static const Crc32Update update = [] {
#ifdef CORDIAL_CRC32_PCLMUL
    if (detail::Crc32PclmulSupported()) return &PclmulUpdate;
#endif
    return &SliceBy8Update;
  }();
  return Finish(update, data);
}

namespace {

/// The reflected polynomial, x^32 implied: bit 31 is x^0.
constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;

/// a(x)·b(x) modulo the polynomial, both reflected; `a` must not be 0.
std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31;; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
      if ((a & (m - 1)) == 0) return product;
    }
    b = (b & 1) != 0 ? (b >> 1) ^ kCrc32Poly : b >> 1;
  }
}

/// x^(2^k) modulo the polynomial for k < 32; x^(2^32) wraps to x^(2^0)
/// because the order of x modulo the CRC-32 polynomial divides 2^32 - 1.
const std::array<std::uint32_t, 32>& PowersOfX() {
  static const std::array<std::uint32_t, 32> table = [] {
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = 1u << 30;  // x^1
    t[0] = p;
    for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = MultModP(p, p);
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) {
  // x^(8·len_b): one factor x^(2^k) per set bit k of len_b·8.
  const std::array<std::uint32_t, 32>& powers = PowersOfX();
  std::uint32_t shift = 1u << 31;  // x^0
  for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1) != 0) shift = MultModP(powers[k & 31], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

FrameHeader ParseFrameHeaderLine(std::string_view line) {
  FrameHeader header;
  std::size_t pos = 0;
  const auto take_token = [&]() -> std::string_view {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    return line.substr(start, pos - start);
  };
  header.magic = std::string(take_token());
  if (header.magic.empty()) {
    throw ParseError("frame header: missing magic");
  }
  const std::string version_token(take_token());
  if (version_token.empty()) {
    throw ParseError(header.magic + ": missing version");
  }
  header.version = ParseVersionToken(version_token, header.magic);
  const std::string_view bytes_token = take_token();
  if (bytes_token.empty()) {
    throw ParseError(header.magic + ": missing payload length");
  }
  const auto [ptr, ec] =
      std::from_chars(bytes_token.data(), bytes_token.data() + bytes_token.size(),
                      header.payload_bytes);
  if (ec != std::errc() || ptr != bytes_token.data() + bytes_token.size()) {
    throw ParseError(header.magic + ": malformed payload length '" +
                     std::string(bytes_token) + "'");
  }
  // The header tail is precisely " crc32=<8 lowercase hex>" — anything
  // else, nothing included, is a corrupt (or pre-CRC) header.
  const std::string tail(line.substr(pos));
  if (tail.empty()) {
    throw ParseError(header.magic + ": missing crc32 field");
  }
  const std::string prefix = " crc32=";
  if (tail.size() != prefix.size() + 8 ||
      tail.compare(0, prefix.size(), prefix) != 0) {
    throw ParseError(header.magic + ": malformed checksum field '" + tail +
                     "'");
  }
  for (std::size_t i = prefix.size(); i < tail.size(); ++i) {
    const int digit = HexDigit(tail[i]);
    if (digit < 0) {
      throw ParseError(header.magic + ": malformed checksum field '" + tail +
                       "'");
    }
    header.crc32 = (header.crc32 << 4) | static_cast<std::uint32_t>(digit);
  }
  // Sanity-cap the promised length before anyone allocates for it: a
  // corrupt byte count must be a ParseError, not a bad_alloc.
  if (header.payload_bytes > kMaxFramePayloadBytes) {
    throw ParseError(header.magic + ": implausible payload length " +
                     std::to_string(header.payload_bytes) + " (limit " +
                     std::to_string(kMaxFramePayloadBytes) + " bytes)");
  }
  return header;
}

std::string FrameHeaderLine(std::string_view magic, std::uint32_t version,
                            std::uint64_t payload_bytes, std::uint32_t crc32) {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32);
  std::string line(magic);
  line += " v" + std::to_string(version) + ' ' +
          std::to_string(payload_bytes) + " crc32=" + crc_hex + '\n';
  return line;
}

std::uint32_t CloseFrame(std::string& out, std::size_t payload_start,
                         std::string_view magic, std::uint32_t version) {
  return CloseFrame(out, payload_start, magic, version,
                    Crc32(std::string_view(out).substr(payload_start)));
}

std::uint32_t CloseFrame(std::string& out, std::size_t payload_start,
                         std::string_view magic, std::uint32_t version,
                         std::uint32_t payload_crc) {
  const std::size_t payload_bytes = out.size() - payload_start;
  const std::string header =
      FrameHeaderLine(magic, version, payload_bytes, payload_crc);
  out.insert(payload_start, header);
  return Crc32Combine(Crc32(header), payload_crc, payload_bytes);
}

namespace {

void ExpectMagic(std::string_view seen, const std::string& magic) {
  if (seen.empty()) throw ParseError(magic + ": empty stream");
  if (seen != magic) {
    throw ParseError(magic + ": bad magic '" + std::string(seen) +
                     "' (not a " + magic + " stream)");
  }
}

/// Parse a header line and check it against the caller's expectations: the
/// version must be `expected_version`, and the promised payload must fit in
/// the `available` bytes after the line.
FrameHeader ExpectHeader(std::string_view line, const std::string& magic,
                         std::uint32_t expected_version,
                         std::uint64_t available) {
  const FrameHeader header = ParseFrameHeaderLine(line);
  if (header.version != expected_version) {
    throw ParseError(magic + ": version mismatch — stream is v" +
                     std::to_string(header.version) + ", this build reads v" +
                     std::to_string(expected_version));
  }
  if (header.payload_bytes > available) {
    throw ParseError(magic + ": truncated payload (header promises " +
                     std::to_string(header.payload_bytes) +
                     " bytes, stream has " + std::to_string(available) +
                     " left)");
  }
  return header;
}

/// Verify the payload against the header's CRC-32 before the caller reads
/// any of it.
void VerifyPayload(const FrameHeader& header, const std::string& magic,
                   std::string_view payload) {
  const std::uint32_t actual_crc = Crc32(payload);
  if (actual_crc != header.crc32) {
    char expected_hex[16], actual_hex[16];
    std::snprintf(expected_hex, sizeof(expected_hex), "%08x", header.crc32);
    std::snprintf(actual_hex, sizeof(actual_hex), "%08x", actual_crc);
    throw ParseError(magic + ": payload checksum mismatch (header crc32=" +
                     expected_hex + ", payload crc32=" + actual_hex +
                     ") — corrupt frame");
  }
}

void InjectedReadFailure(const std::string& magic) {
  CORDIAL_FAILPOINT("common.framing.read",
                    throw ParseError(magic +
                                     ": injected read failure (failpoint "
                                     "common.framing.read)"));
}

}  // namespace

std::string_view ReadFramedView(std::string_view& in, const std::string& magic,
                                std::uint32_t expected_version) {
  InjectedReadFailure(magic);
  const std::string_view seen = PeekMagic(in);
  ExpectMagic(seen, magic);
  const std::size_t newline =
      in.substr(0, seen.size() + kMaxHeaderRestBytes + 1).find('\n',
                                                               seen.size());
  if (newline == std::string_view::npos) {
    throw ParseError(magic + ": malformed header");
  }
  const FrameHeader header = ExpectHeader(in.substr(0, newline), magic,
                                          expected_version,
                                          in.size() - newline - 1);
  const std::string_view payload =
      in.substr(newline + 1, static_cast<std::size_t>(header.payload_bytes));
  VerifyPayload(header, magic, payload);
  in.remove_prefix(newline + 1 + payload.size());
  return payload;
}

void ExpectNoTrailingBytes(std::string_view rest, const std::string& where) {
  if (!rest.empty()) {
    throw ParseError(where + ": " + std::to_string(rest.size()) +
                     " unexpected trailing byte(s)");
  }
}

std::string_view PeekMagic(std::string_view bytes) {
  const std::string_view head = bytes.substr(0, kMaxMagicBytes);
  return head.substr(0, head.find_first_of(" \t\n"));
}

}  // namespace cordial
