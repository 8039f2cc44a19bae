// Serialization round-trips for every encoding layout, plus corruption and
// truncation rejection (failure injection).
#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace ohd::core {
namespace {

std::vector<std::uint16_t> quant_like(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint16_t> out(n);
  for (auto& s : out) {
    const long v = 512 + std::lround(rng.normal() * 25.0);
    s = static_cast<std::uint16_t>(std::clamp(v, 1l, 1023l));
  }
  return out;
}

class StreamSerialization : public ::testing::TestWithParam<Method> {};

TEST_P(StreamSerialization, RoundtripPreservesDecodedSymbols) {
  const auto codes = quant_like(30000, 3);
  const auto enc = encode_for_method(GetParam(), codes, 1024);
  const auto bytes = serialize_stream(enc);
  const auto parsed = deserialize_stream(bytes);
  EXPECT_EQ(parsed.method, enc.method);
  EXPECT_EQ(parsed.num_symbols, enc.num_symbols);

  cudasim::SimContext c1, c2;
  const auto a = decode(c1, enc);
  const auto b = decode(c2, parsed);
  EXPECT_EQ(a.symbols, b.symbols);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, StreamSerialization,
                         ::testing::Values(Method::CuszNaive,
                                           Method::SelfSyncOriginal,
                                           Method::SelfSyncOptimized,
                                           Method::GapArrayOriginal8Bit,
                                           Method::GapArrayOptimized));

TEST(StreamSerializationFailure, TruncationAtEveryPrefixThrows) {
  const auto codes = quant_like(2000, 5);
  const auto enc = encode_for_method(Method::GapArrayOptimized, codes, 1024);
  const auto bytes = serialize_stream(enc);
  // Any strict prefix must be rejected, never crash or mis-parse.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{5},
                          bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(deserialize_stream(prefix), std::invalid_argument)
        << "cut=" << cut;
  }
}

/// Exhaustive truncation fuzzing: EVERY strict byte prefix of a serialized
/// stream — so every field boundary of every method's layout — must throw,
/// for all five methods.
TEST_P(StreamSerialization, TruncationAtEveryByteThrows) {
  const auto codes = quant_like(600, 17);
  const auto bytes = serialize_stream(encode_for_method(GetParam(), codes, 1024));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(deserialize_stream(prefix), std::invalid_argument)
        << method_name(GetParam()) << " cut=" << cut;
  }
}

/// Inconsistent lengths: the header's num_symbols (u64 at byte 6) no longer
/// matches the payload's symbol count.
TEST_P(StreamSerialization, TamperedSymbolCountThrows) {
  const auto codes = quant_like(600, 19);
  auto bytes = serialize_stream(encode_for_method(GetParam(), codes, 1024));
  bytes[6] ^= 0x01;
  EXPECT_THROW(deserialize_stream(bytes), std::invalid_argument)
      << method_name(GetParam());
}

/// A consistent but hostile symbol count: header and payload both claim 2^33
/// symbols over a few hundred bytes of codewords. Every codeword is at least
/// one bit, so the parse must reject the count before any decoder sizes an
/// output buffer from it.
TEST_P(StreamSerialization, SymbolCountBeyondStreamBitsThrows) {
  const std::uint64_t huge = std::uint64_t{1} << 33;
  auto enc = encode_for_method(GetParam(), quant_like(600, 23), 1024);
  enc.num_symbols = huge;
  if (auto* chunked = std::get_if<huffman::ChunkedEncoding>(&enc.payload)) {
    chunked->num_symbols = huge;
  } else if (auto* plain = std::get_if<huffman::StreamEncoding>(&enc.payload)) {
    plain->num_symbols = huge;
  } else {
    std::get<huffman::GapEncoding>(enc.payload).stream.num_symbols = huge;
  }
  try {
    (void)deserialize_stream(serialize_stream(enc));
    FAIL() << method_name(GetParam()) << ": hostile symbol count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the stream's bits"),
              std::string::npos)
        << method_name(GetParam()) << ": " << e.what();
  }
}

TEST(StreamSerializationFailure, BadMagicThrows) {
  const auto codes = quant_like(100, 7);
  auto bytes =
      serialize_stream(encode_for_method(Method::SelfSyncOptimized, codes, 1024));
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize_stream(bytes), std::invalid_argument);
}

TEST(StreamSerializationFailure, BadVersionThrows) {
  const auto codes = quant_like(100, 9);
  auto bytes =
      serialize_stream(encode_for_method(Method::SelfSyncOptimized, codes, 1024));
  bytes[4] = 99;
  EXPECT_THROW(deserialize_stream(bytes), std::invalid_argument);
}

TEST(StreamSerializationFailure, BadMethodTagThrows) {
  const auto codes = quant_like(100, 11);
  auto bytes =
      serialize_stream(encode_for_method(Method::SelfSyncOptimized, codes, 1024));
  bytes[5] = 42;
  EXPECT_THROW(deserialize_stream(bytes), std::invalid_argument);
}

TEST(StreamSerialization, CodebookOmittedResolvesAgainstSharedBook) {
  const auto codes = quant_like(20000, 17);
  const auto enc = encode_for_method(Method::GapArrayOptimized, codes, 1024);

  const auto slim = serialize_stream(enc, /*include_codebook=*/false);
  const auto full = serialize_stream(enc);
  EXPECT_LT(slim.size(), full.size());

  // Without the shared book the stream is undecodable...
  EXPECT_THROW(deserialize_stream(slim), std::invalid_argument);
  // ... with it, the parse reproduces the self-contained stream exactly.
  const auto parsed = deserialize_stream(slim, &enc.codebook);
  EXPECT_EQ(serialize_stream(parsed), full);

  // A self-contained stream ignores any shared book offered alongside.
  const auto parsed_full = deserialize_stream(full, &enc.codebook);
  EXPECT_EQ(serialize_stream(parsed_full), full);
}

TEST(StreamSerializationFailure, RandomCorruptionNeverCrashes) {
  const auto codes = quant_like(5000, 13);
  const auto original =
      serialize_stream(encode_for_method(Method::GapArrayOptimized, codes, 1024));
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    // Either parses (corruption hit the payload bits, not the metadata) or
    // throws invalid_argument; anything else is a bug.
    try {
      const auto parsed = deserialize_stream(bytes);
      (void)parsed;
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace ohd::core
