#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "support/fnv1a.hpp"
#include "trace/log_codec.hpp"

namespace cordial::net {
namespace {

using test_support::Fnv1a;

trace::MceRecord SampleRecord(double t, std::uint32_t row) {
  trace::MceRecord r;
  r.time_s = t;
  r.address = {1, 2, 3, 1, 2, 1, 3, 2, row, 101};
  r.type = hbm::ErrorType::kUeo;
  return r;
}

/// Encode, run through an assembler, decode — the full wire path.
Message RoundTrip(const Message& message) {
  FrameAssembler assembler;
  assembler.Append(EncodeFrame(message));
  std::string payload;
  EXPECT_TRUE(assembler.Next(payload));
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  return DecodeMessage(payload);
}

TEST(NetWire, RoundTripsEveryMessageType) {
  {
    const auto m = std::get<Hello>(RoundTrip(Hello{7}));
    EXPECT_EQ(m.protocol_version, 7u);
  }
  {
    Batch batch;
    batch.sequence = 42;
    batch.records = {SampleRecord(1.5, 10), SampleRecord(2.5, 11)};
    const auto m = std::get<Batch>(RoundTrip(batch));
    EXPECT_EQ(m.sequence, 42u);
    ASSERT_EQ(m.records.size(), 2u);
    EXPECT_EQ(m.records[0], batch.records[0]);
    EXPECT_EQ(m.records[1], batch.records[1]);
  }
  {
    const auto m = std::get<Ack>(RoundTrip(Ack{9, 1234}));
    EXPECT_EQ(m.sequence, 9u);
    EXPECT_EQ(m.accepted_records, 1234u);
  }
  {
    const auto m = std::get<Reject>(
        RoundTrip(Reject{3, RejectReason::kBackpressure, 55}));
    EXPECT_EQ(m.sequence, 3u);
    EXPECT_EQ(m.reason, RejectReason::kBackpressure);
    EXPECT_EQ(m.accepted_records, 55u);
  }
  {
    const auto m = std::get<ExportShard>(RoundTrip(ExportShard{6}));
    EXPECT_EQ(m.shard, 6u);
  }
  {
    const std::string state("framed\0bytes\n", 13);  // embedded NUL survives
    const auto m = std::get<ShardState>(RoundTrip(ShardState{2, state}));
    EXPECT_EQ(m.shard, 2u);
    EXPECT_EQ(m.state, state);
  }
  {
    const auto m =
        std::get<ImportShard>(RoundTrip(ImportShard{1, std::string(1000, 'x')}));
    EXPECT_EQ(m.shard, 1u);
    EXPECT_EQ(m.state.size(), 1000u);
  }
  {
    const auto m = std::get<Imported>(RoundTrip(Imported{4}));
    EXPECT_EQ(m.shard, 4u);
  }
}

TEST(NetWire, FrameBytesMatchPinnedHashes) {
  // Round trips compare the two ends of one build, so an encoder rewrite
  // that changed the bytes on both ends would still pass them. These
  // hashes pin the frames themselves, across builds: one message of each
  // type, and the Batch frame built straight from a record span.
  std::vector<trace::MceRecord> records = {SampleRecord(1.5, 10),
                                           SampleRecord(2.5, 11),
                                           SampleRecord(2.5, 12)};
  records[1].type = hbm::ErrorType::kCe;
  records[2].type = hbm::ErrorType::kUer;
  const std::string state("framed\0bytes\n", 13);
  const struct {
    const char* name;
    Message message;
    std::uint64_t hash;
  } goldens[] = {
      {"hello", Hello{}, 0x84de4e53d54b0b9bull},
      {"batch", Batch{42, records}, 0x78376da57af3fc5full},
      {"ack", Ack{9, 1234}, 0xea9a949fd453e418ull},
      {"reject", Reject{3, RejectReason::kBadSequence, 55},
       0x12f95d4894c0dbc4ull},
      {"export-shard", ExportShard{6}, 0xac2b4406ae9aa266ull},
      {"shard-state", ShardState{2, state}, 0x956e8cd0921c3155ull},
      {"import-shard", ImportShard{1, std::string(1000, 'x')},
       0xf7170c14743e7e48ull},
      {"imported", Imported{4}, 0xa23f3bf13b55992aull},
  };
  for (const auto& golden : goldens) {
    const std::string frame = EncodeFrame(golden.message);
    EXPECT_EQ(Fnv1a(frame), golden.hash)
        << golden.name << " 0x" << std::hex << Fnv1a(frame);
  }
  const std::string batch_frame = EncodeBatchFrame(42, records);
  EXPECT_EQ(batch_frame, EncodeFrame(goldens[1].message));
  EXPECT_EQ(Fnv1a(batch_frame), goldens[1].hash);
}

TEST(NetWire, EmptyBatchRoundTrips) {
  const auto m = std::get<Batch>(RoundTrip(Batch{1, {}}));
  EXPECT_EQ(m.sequence, 1u);
  EXPECT_TRUE(m.records.empty());
}

TEST(NetWire, AssemblerReassemblesByteByByte) {
  Batch batch;
  batch.sequence = 5;
  batch.records = {SampleRecord(0.5, 1)};
  const std::string frame = EncodeFrame(batch);

  FrameAssembler assembler;
  std::string payload;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    assembler.Append(std::string_view(frame).substr(i, 1));
    EXPECT_FALSE(assembler.Next(payload)) << "complete at byte " << i;
  }
  assembler.Append(std::string_view(frame).substr(frame.size() - 1));
  ASSERT_TRUE(assembler.Next(payload));
  EXPECT_EQ(std::get<Batch>(DecodeMessage(payload)).sequence, 5u);
}

TEST(NetWire, AssemblerYieldsMultipleFramesFromOneAppend) {
  std::string stream;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    stream += EncodeFrame(Ack{seq, seq * 10});
  }
  FrameAssembler assembler;
  assembler.Append(stream);
  std::string payload;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(assembler.Next(payload));
    EXPECT_EQ(std::get<Ack>(DecodeMessage(payload)).sequence, seq);
  }
  EXPECT_FALSE(assembler.Next(payload));
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(NetWire, CorruptPayloadFailsChecksum) {
  std::string frame = EncodeFrame(Ack{1, 2});
  frame[frame.size() - 3] ^= 0x20;  // flip a payload bit
  FrameAssembler assembler;
  assembler.Append(frame);
  std::string payload;
  EXPECT_THROW(assembler.Next(payload), ParseError);
}

TEST(NetWire, WrongMagicRejected) {
  FrameAssembler assembler;
  assembler.Append("cordial_fleet_checkpoint v1 3 crc32=deadbeef\nabc");
  std::string payload;
  EXPECT_THROW(assembler.Next(payload), ParseError);
}

TEST(NetWire, WrongVersionRejected) {
  FrameAssembler assembler;
  assembler.Append("cordial_net v9 3 crc32=deadbeef\nabc");
  std::string payload;
  EXPECT_THROW(assembler.Next(payload), ParseError);
}

TEST(NetWire, ChecksumlessFrameRejected) {
  // The shared header parser refuses a header without crc32=, on the wire
  // as in files.
  FrameAssembler assembler;
  assembler.Append("cordial_net v1 3\nabc");
  std::string payload;
  EXPECT_THROW(assembler.Next(payload), ParseError);
}

TEST(NetWire, UnterminatedHeaderRejectedAtCap) {
  FrameAssembler assembler;
  assembler.Append(std::string(300, 'a'));  // no newline, over the cap
  std::string payload;
  EXPECT_THROW(assembler.Next(payload), ParseError);
}

TEST(NetWire, OversizedPayloadRejectedBeforeArrival) {
  FrameAssembler assembler(1024);
  assembler.Append("cordial_net v1 4096 crc32=deadbeef\n");
  std::string payload;
  EXPECT_THROW(assembler.Next(payload), ParseError);
}

TEST(NetWire, UnknownTypeByteRejected) {
  std::string payload(1, '\x63');
  EXPECT_THROW(DecodeMessage(payload), ParseError);
}

TEST(NetWire, TruncatedPayloadRejected) {
  const std::string frame = EncodeFrame(Ack{1, 2});
  // Strip the header and cut the payload short.
  const std::string payload = frame.substr(frame.find('\n') + 1);
  EXPECT_THROW(DecodeMessage(payload.substr(0, payload.size() - 1)),
               ParseError);
}

TEST(NetWire, TrailingBytesRejected) {
  const std::string frame = EncodeFrame(Imported{1});
  std::string payload = frame.substr(frame.find('\n') + 1);
  payload.push_back('x');
  EXPECT_THROW(DecodeMessage(payload), ParseError);
}

TEST(NetWire, BatchCountMismatchRejected) {
  Batch batch;
  batch.sequence = 1;
  batch.records = {SampleRecord(1.0, 1)};
  const std::string frame = EncodeFrame(batch);
  std::string payload = frame.substr(frame.find('\n') + 1);
  payload.resize(payload.size() - 1);  // count says 1 record, bytes say less
  EXPECT_THROW(DecodeMessage(payload), ParseError);
}

TEST(NetWire, UnknownRejectReasonRejected) {
  const std::string frame = EncodeFrame(Reject{1, RejectReason::kMalformed, 0});
  std::string payload = frame.substr(frame.find('\n') + 1);
  payload[1 + 8] = '\x07';  // reason byte sits after type + sequence
  EXPECT_THROW(DecodeMessage(payload), ParseError);
}

TEST(NetWire, FrameMutantsFailClosedOrDecodeCanonically) {
  // A framed 4-record Batch and a framed ImportShard. First every
  // single-bit flip of every byte, the header's crc32 left stale: the
  // assembler must refuse each with ParseError before it yields a payload,
  // and a flip in the payload as a checksum mismatch. A flip that makes
  // the header promise more bytes leaves the assembler waiting, so the
  // pristine frame is appended again until it decides, as the rest of a
  // connection's stream would be. Then 10^4 seeded mutants of each payload
  // that rewrite 2 to 8 random bytes, re-framed with their own crc32: the
  // checksum passes, so DecodeMessage is the only line of defence, and each
  // must throw ParseError or decode to a message that re-encodes to exactly
  // the mutant frame.
  Batch batch;
  batch.sequence = 77;
  for (std::uint32_t i = 0; i < 4; ++i) {
    batch.records.push_back(SampleRecord(10.0 + i, 100 + i));
  }
  batch.records[2].type = hbm::ErrorType::kCe;
  batch.records[3].type = hbm::ErrorType::kUer;
  std::mt19937_64 rng(20261018);
  std::string state(300, '\0');
  for (char& c : state) c = static_cast<char>(rng());
  const std::string frames[] = {EncodeFrame(batch),
                                EncodeFrame(ImportShard{3, state})};

  std::size_t flips_refused = 0;
  for (const std::string& frame : frames) {
    const std::size_t payload_start = frame.find('\n') + 1;
    std::string mutant = frame;
    for (std::size_t at = 0; at < frame.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        mutant[at] = static_cast<char>(frame[at] ^ (1 << bit));
        const std::string where =
            "byte " + std::to_string(at) + " bit " + std::to_string(bit);
        FrameAssembler assembler;
        assembler.Append(mutant);
        std::string payload;
        try {
          bool yielded = assembler.Next(payload);
          for (int more = 0; !yielded && more < 8; ++more) {
            assembler.Append(frame);
            yielded = assembler.Next(payload);
          }
          ADD_FAILURE() << where << (yielded ? ": accepted" : ": undecided");
        } catch (const ParseError& e) {
          ++flips_refused;
          if (at >= payload_start) {
            EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                      std::string::npos)
                << where << ": " << e.what();
          }
        }
      }
      mutant[at] = frame[at];
    }
  }

  std::size_t refused = 0;
  std::size_t decoded = 0;
  for (const std::string& frame : frames) {
    const std::string pristine = frame.substr(frame.find('\n') + 1);
    for (int m = 0; m < 10000; ++m) {
      std::string payload = pristine;
      const auto bytes = 2 + static_cast<int>(rng() % 7);
      for (int b = 0; b < bytes; ++b) {
        payload[rng() % payload.size()] = static_cast<char>(rng());
      }
      const std::string mutant =
          FrameHeaderLine(kWireMagic, kWireVersion, payload.size(),
                          Crc32(payload)) +
          payload;
      FrameAssembler assembler;
      assembler.Append(mutant);
      std::string assembled;
      ASSERT_TRUE(assembler.Next(assembled)) << "mutant " << m;
      ASSERT_EQ(assembled, payload);
      Message message;
      try {
        message = DecodeMessage(assembled);
      } catch (const ParseError&) {
        ++refused;
        continue;
      } catch (const std::exception& e) {
        FAIL() << "mutant " << m << ": " << e.what();
      }
      ++decoded;
      EXPECT_EQ(EncodeFrame(message), mutant) << "mutant " << m;
    }
  }
  std::printf("wire flips: %zu refused; wire payload mutants: %zu refused, "
              "%zu decoded\n",
              flips_refused, refused, decoded);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace cordial::net
