// Versioned magic + length framing: the loader must tell apart "not our
// file", "wrong version", "truncated" and "corrupt", and both CRC-32
// kernels must agree.
#include "common/framing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"

namespace cordial {
namespace {

/// `payload` framed in place, as every writer frames its bytes.
std::string Framed(std::string_view magic, std::uint32_t version,
                   std::string_view payload) {
  std::string frame(payload);
  CloseFrame(frame, 0, magic, version);
  return frame;
}

/// The payload of the frame at the front of `bytes`, copied out.
std::string Read(std::string_view bytes, const std::string& magic,
                 std::uint32_t version) {
  return std::string(ReadFramedView(bytes, magic, version));
}

TEST(Framing, RoundTripsPayloadVerbatim) {
  const std::string payload = "line one\nline two with spaces\n\x01\x02 raw";
  EXPECT_EQ(Read(Framed("test_magic", 3, payload), "test_magic", 3), payload);
}

TEST(Framing, EmptyPayloadRoundTrips) {
  EXPECT_EQ(Read(Framed("empty_frame", 1, ""), "empty_frame", 1), "");
}

TEST(Framing, FramesNest) {
  const std::string outer = Framed("outer", 2, Framed("inner", 1, "payload"));
  EXPECT_EQ(Read(Read(outer, "outer", 2), "inner", 1), "payload");
}

TEST(Framing, ConsecutiveFramesReadInOrder) {
  const std::string bytes = Framed("frame", 1, "first") + Framed("frame", 1, "second");
  std::string_view view(bytes);
  EXPECT_EQ(PeekMagic(view), "frame");
  EXPECT_EQ(ReadFramedView(view, "frame", 1), "first");
  EXPECT_EQ(PeekMagic(view), "frame");
  EXPECT_EQ(ReadFramedView(view, "frame", 1), "second");
  EXPECT_EQ(PeekMagic(view), "");
}

TEST(Framing, RejectsWrongMagic) {
  EXPECT_THROW(Read(Framed("actual_magic", 1, "x"), "expected_magic", 1),
               ParseError);
}

TEST(Framing, RejectsVersionMismatchWithClearMessage) {
  try {
    Read(Framed("magic", 7, "x"), "magic", 1);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v7"), std::string::npos) << what;
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
  }
}

TEST(Framing, RejectsTruncatedPayload) {
  const std::string whole = Framed("magic", 1, "a full payload");
  EXPECT_THROW(Read(whole.substr(0, whole.size() - 5), "magic", 1),
               ParseError);
}

TEST(Framing, RejectsEmptyAndGarbageStreams) {
  EXPECT_THROW(Read("", "magic", 1), ParseError);
  EXPECT_THROW(Read("not a frame at all", "magic", 1), ParseError);
  EXPECT_THROW(Read("magic vX 10\n0123456789", "magic", 1), ParseError);
}

TEST(Framing, CorruptLengthIsParseErrorNotBadAlloc) {
  // A flipped bit in the byte count must be rejected before anything is
  // sized by it. (The crc32 fields are well-formed, so the length is what
  // each case trips on.)
  EXPECT_THROW(Read("magic v1 123456789012345678 crc32=00000000\npayload",
                    "magic", 1),
               ParseError);

  // Over the hard cap even if the buffer were big enough.
  EXPECT_THROW(Read("magic v1 " + std::to_string(kMaxFramePayloadBytes + 1) +
                        " crc32=00000000\nx",
                    "magic", 1),
               ParseError);

  // A length larger than the bytes left is rejected up front as
  // truncation.
  try {
    Read("magic v1 1000 crc32=00000000\nonly a few bytes", "magic", 1);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(Framing, ChecksumMismatchIsRejectedWithClearMessage) {
  std::string bytes = Framed("magic", 1, "a payload worth protecting");
  bytes[bytes.size() - 3] ^= 0x10;  // flip one payload bit
  try {
    Read(bytes, "magic", 1);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(Framing, HeaderWithoutChecksumIsParseError) {
  // Layout v1, as pre-CRC builds wrote it: no crc32 field. The shared
  // header parser refuses it, naming the field.
  try {
    Read("magic v3 7\npayload", "magic", 3);
    FAIL() << "accepted a header without crc32=";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("missing crc32 field"),
              std::string::npos)
        << e.what();
  }
}

TEST(Framing, MalformedChecksumFieldIsNotDemotedToLegacy) {
  // Anything after the byte count other than a well-formed crc32 token is
  // a corrupt header — a bit flip inside the checksum field must not turn
  // a protected frame into an unchecked one.
  const std::string payload = "x";
  for (const std::string tail :
       {" crc32=xyz", " crc32=1234567", " crc32=123456789", " crcZZ=12345678",
        " 12345678", "  crc32=12345678"}) {
    const std::string bytes = "magic v1 " + std::to_string(payload.size()) +
                              tail + '\n' + payload;
    EXPECT_THROW(Read(bytes, "magic", 1), ParseError) << tail;
  }
}

TEST(Framing, Crc32MatchesKnownVectors) {
  // The standard IEEE 802.3 check value, so the on-disk format is the
  // zlib/PNG CRC and not some homegrown variant.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

/// `n` seeded pseudo-random bytes.
std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xFFu);
  return bytes;
}

TEST(Framing, Crc32KernelAgreesWithPortablePath) {
  // Both paths give the IEEE check value, and the folding kernel equals
  // slice-by-8 at every length through the 64-byte fold, the 16-byte fold
  // and the sub-16-byte tail, from every alignment, and on long inputs.
  EXPECT_EQ(detail::Crc32SliceBy8("123456789"), 0xCBF43926u);
  EXPECT_EQ(detail::Crc32SliceBy8(""), 0x00000000u);
  // zlib.crc32 of 1,024 'a' bytes: an outside oracle past the kernel's
  // 64-byte threshold.
  const std::string a1024(1024, 'a');
  EXPECT_EQ(detail::Crc32SliceBy8(a1024), 0x7C5597B9u);
  if (!detail::Crc32PclmulSupported()) {
    GTEST_SKIP() << "this CPU has no PCLMULQDQ/SSE4.1: Crc32 runs the "
                    "slice-by-8 path only, so there is no kernel to compare";
  }
  EXPECT_EQ(detail::Crc32Pclmul("123456789"), 0xCBF43926u);
  EXPECT_EQ(detail::Crc32Pclmul(""), 0x00000000u);
  EXPECT_EQ(detail::Crc32Pclmul(a1024), 0x7C5597B9u);

  const std::string small = RandomBytes(1100 + 16, 0xC4C32);
  std::size_t mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::string_view data = std::string_view(small).substr(offset, len);
      const std::uint32_t portable = detail::Crc32SliceBy8(data);
      if (detail::Crc32Pclmul(data) != portable || Crc32(data) != portable) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
        if (++mismatches > 10) return;
      }
    }
  }

  constexpr std::size_t kLarge = std::size_t{4} << 20;
  const std::string large = RandomBytes(kLarge + 16, 0xB16C4C);
  Rng rng(0x4D1B);
  for (int i = 0; i < 64; ++i) {
    const std::size_t offset = rng.UniformU64(16);
    const std::size_t len = rng.UniformU64(kLarge + 1);
    const std::string_view data = std::string_view(large).substr(offset, len);
    EXPECT_EQ(detail::Crc32Pclmul(data), detail::Crc32SliceBy8(data))
        << "offset " << offset << " length " << len;
  }
}

TEST(Framing, Crc32CombineEqualsCrc32OfTheConcatenation) {
  // Crc32Combine(Crc32(A), Crc32(B), |B|) is Crc32(A·B) for every split,
  // the empty and one-byte pieces included, with the pieces' CRCs taken by
  // either kernel; chained left to right over many pieces, as a fleet
  // frame combines its shard frames, it is the CRC of the whole.
  using Kernel = std::uint32_t (*)(std::string_view);
  std::vector<Kernel> kernels = {&detail::Crc32SliceBy8};
  if (detail::Crc32PclmulSupported()) kernels.push_back(&detail::Crc32Pclmul);
  const std::string bytes = RandomBytes(5000, 0xC0B1E);
  const std::string_view all(bytes);
  Rng rng(0x5B117);
  for (const Kernel crc : kernels) {
    for (int trial = 0; trial < 200; ++trial) {
      // The first trials split data of 0, 1 and 2 bytes.
      const std::size_t len = trial < 3 ? static_cast<std::size_t>(trial)
                                        : rng.UniformU64(bytes.size() - 15);
      const std::string_view data = all.substr(rng.UniformU64(16), len);
      // Cuts leaving an empty or a one-byte piece on either side, and one
      // at random.
      for (const std::size_t cut :
           {std::size_t{0}, std::size_t{1}, len - 1, len,
            static_cast<std::size_t>(rng.UniformU64(len + 1))}) {
        if (cut > len) continue;
        const std::string_view a = data.substr(0, cut);
        const std::string_view b = data.substr(cut);
        ASSERT_EQ(Crc32Combine(crc(a), crc(b), b.size()), crc(data))
            << "length " << len << " cut " << cut;
      }
    }
    // Many pieces, some empty, some a byte long.
    std::uint32_t combined = crc("");
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t piece =
          std::min<std::size_t>(rng.UniformU64(3) == 0 ? rng.UniformU64(2)
                                                       : rng.UniformU64(700),
                                bytes.size() - at);
      combined =
          Crc32Combine(combined, crc(all.substr(at, piece)), piece);
      at += piece;
    }
    EXPECT_EQ(combined, crc(all));
  }
}

TEST(Framing, Crc32FirstCallFromManyThreads) {
  // ctest runs each test in a process of its own, so these are the
  // process's first Crc32 calls: eight threads race through the one-time
  // kernel choice and the slice-by-8 table build, and every result must
  // still be the checksum. The lengths reach the kernel's 64-byte fold,
  // its 16-byte fold and the tail.
  constexpr int kThreads = 8;
  const std::string a1024(1024, 'a');
  const std::vector<std::size_t> lengths = {0, 9, 63, 64, 79, 200, 1024};
  std::vector<std::vector<std::uint32_t>> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const std::size_t len : lengths) {
        results[t].push_back(Crc32(std::string_view(a1024).substr(0, len)));
      }
      results[t].push_back(Crc32("123456789"));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_EQ(results[t].size(), lengths.size() + 1);
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      const std::string_view data = std::string_view(a1024).substr(0, lengths[i]);
      EXPECT_EQ(results[t][i], detail::Crc32SliceBy8(data))
          << "length " << lengths[i];
    }
    EXPECT_EQ(results[t][lengths.size() - 1], 0x7C5597B9u);
    EXPECT_EQ(results[t].back(), 0xCBF43926u);
  }
}

TEST(Framing, ReadFailpointInjectsParseError) {
  const std::string bytes = Framed("magic", 1, "fine payload");
  failpoint::Arm("common.framing.read");
  EXPECT_THROW(Read(bytes, "magic", 1), ParseError);
  failpoint::DisarmAll();
  EXPECT_EQ(Read(bytes, "magic", 1), "fine payload");
}

TEST(Framing, InPlaceWriterMatchesWriteFramedAndNests) {
  // CloseFrame turns bytes already in a buffer into a frame, so a member
  // and its nested sections are written into one string; each frame is its
  // header line (FrameHeaderLine over the payload's size and CRC-32), then
  // the payload.
  const auto frame = [](std::string_view magic, std::uint32_t version,
                        const std::string& payload) {
    return FrameHeaderLine(magic, version, payload.size(), Crc32(payload)) +
           payload;
  };
  const std::string inner = frame("inner", 1, "payload");
  const std::string outer = frame("outer", 2, "head\n" + inner);

  std::string buffer = "prefix";
  const std::size_t outer_start = buffer.size();
  buffer += "head\n";
  const std::size_t inner_start = buffer.size();
  buffer += "payload";
  const std::uint32_t inner_crc = CloseFrame(buffer, inner_start, "inner", 1);
  EXPECT_EQ(inner_crc, Crc32(inner));
  const std::uint32_t outer_crc = CloseFrame(buffer, outer_start, "outer", 2);
  EXPECT_EQ(buffer, "prefix" + outer);
  EXPECT_EQ(outer_crc, Crc32(outer));

  // Given the payload's CRC combined from its pieces', CloseFrame writes
  // the same frame without reading the payload.
  std::string combined = "prefix";
  const std::size_t start = combined.size();
  combined += "head\n";
  const std::uint32_t head_crc = Crc32("head\n");
  const std::size_t nested = combined.size();
  combined += "payload";
  const std::uint32_t nested_crc = CloseFrame(combined, nested, "inner", 1);
  EXPECT_EQ(CloseFrame(combined, start, "outer", 2,
                       Crc32Combine(head_crc, nested_crc,
                                    combined.size() - nested)),
            outer_crc);
  EXPECT_EQ(combined, buffer);
}

TEST(Framing, ViewReaderSlicesPayloadsInPlace) {
  const std::string bytes = Framed("frame", 1, "first") + Framed("frame", 1, "");
  std::string_view in(bytes);
  const std::string_view first = ReadFramedView(in, "frame", 1);
  EXPECT_EQ(first, "first");
  // A view into the caller's bytes, not a copy.
  EXPECT_GE(first.data(), bytes.data());
  EXPECT_LE(first.data() + first.size(), bytes.data() + bytes.size());
  EXPECT_EQ(ReadFramedView(in, "frame", 1), "");
  EXPECT_TRUE(in.empty());
}

TEST(Framing, ViewReaderMakesTheStreamReadersChecks) {
  const std::string good = Framed("magic", 1, "payload");
  const auto read = [](const std::string& bytes) {
    std::string_view in(bytes);
    return std::string(ReadFramedView(in, "magic", 1));
  };
  EXPECT_EQ(read(good), "payload");
  EXPECT_THROW(read(""), ParseError);
  EXPECT_THROW(read("other" + good), ParseError);        // wrong magic
  EXPECT_THROW(read(" " + good), ParseError);            // not at the front
  EXPECT_THROW(read("magic v1 7 crc32=zz\npayload"), ParseError);
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(read(good.substr(0, len)), ParseError) << len;
  }
  std::string flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  EXPECT_THROW(read(flipped), ParseError);              // checksum
  std::string_view in(good);
  EXPECT_THROW(ReadFramedView(in, "magic", 2), ParseError);  // version
  EXPECT_THROW(read("magic v1 7\npayload"), ParseError);    // no crc32

  failpoint::Arm("common.framing.read");
  EXPECT_THROW(read(good), ParseError);
  failpoint::DisarmAll();
  EXPECT_EQ(read(good), "payload");
}

}  // namespace
}  // namespace cordial
