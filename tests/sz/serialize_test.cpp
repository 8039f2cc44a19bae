#include "sz/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace ohd::sz {
namespace {

std::vector<float> spiky_field(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                              (rng.uniform() < 0.02 ? 50.0 * rng.normal()
                                                    : 0.01 * rng.normal()));
  }
  return v;
}

CompressedBlob make_blob(std::uint64_t seed,
                         core::Method method = core::Method::GapArrayOptimized) {
  const auto data = spiky_field(50000, seed);
  CompressorConfig cfg;
  cfg.method = method;
  cfg.radius = 128;  // forces some outliers
  return compress(data, Dims::d1(data.size()), cfg);
}

TEST(BlobSerialization, RoundtripPreservesDecompression) {
  const auto data = spiky_field(50000, 1);
  CompressorConfig cfg;
  cfg.radius = 128;
  const auto blob = compress(data, Dims::d1(data.size()), cfg);
  ASSERT_GT(blob.outliers.size(), 0u);

  const auto bytes = serialize_blob(blob);
  const auto parsed = deserialize_blob(bytes);
  EXPECT_EQ(parsed.dims.count(), blob.dims.count());
  EXPECT_EQ(parsed.radius, blob.radius);
  EXPECT_EQ(parsed.outliers.size(), blob.outliers.size());

  cudasim::SimContext c1, c2;
  const auto a = decompress(c1, blob);
  const auto b = decompress(c2, parsed);
  EXPECT_EQ(a.data, b.data);
}

TEST(BlobSerialization, SerializedSizeTracksAccounting) {
  const auto blob = make_blob(2);
  const auto bytes = serialize_blob(blob);
  // compressed_bytes() is the blob's size model; the real serialization must
  // agree within a small header margin.
  const double ratio = static_cast<double>(bytes.size()) /
                       static_cast<double>(blob.compressed_bytes());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST(BlobSerializationFailure, TruncationThrows) {
  const auto bytes = serialize_blob(make_blob(3));
  for (std::size_t cut : {std::size_t{2}, bytes.size() / 3, bytes.size() - 1}) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(deserialize_blob(prefix), std::invalid_argument);
  }
}

TEST(BlobSerializationFailure, NonMonotonicOutliersRejected) {
  auto blob = make_blob(4);
  ASSERT_GE(blob.outliers.size(), 2u);
  std::swap(blob.outliers[0], blob.outliers[1]);
  const auto bytes = serialize_blob(blob);
  EXPECT_THROW(deserialize_blob(bytes), std::invalid_argument);
}

TEST(BlobSerializationFailure, OverflowingExtentsRejected) {
  const auto bytes = serialize_blob(make_blob(6));
  // Wire layout: magic (0..4), version u8 (4), rank u32 (5..9), then three
  // u64 extents at 9, 17, 25.
  auto crafted = bytes;
  crafted[24] = 0x80;  // extent[1] = 2^63 on a rank-1 blob (trailing must be 1)
  EXPECT_THROW(deserialize_blob(crafted), std::invalid_argument);
  crafted = bytes;
  crafted[5] = 3;      // rank 3 ...
  crafted[24] = 0x80;  // ... so extent[0] * extent[1] wraps 64 bits
  EXPECT_THROW(deserialize_blob(crafted), std::invalid_argument);
}

TEST(BlobSerializationFailure, OutlierCountBeyondBlobBytesRejected) {
  // A bare 53-byte header declaring 2^33 elements and 2^33 - 1 outliers: the
  // count passes the element bound, but the bytes left could not hold even
  // one outlier record, so it must be rejected before anything is reserved
  // for 2^33 records.
  util::ByteWriter w;
  w.magic("OHDZ");
  w.u8(1);   // blob version
  w.u32(3);  // rank
  for (int i = 0; i < 3; ++i) w.u64(2048);  // 2^33 elements
  w.f64(1e-3);  // error bound
  w.u32(512);   // radius
  w.u64((std::uint64_t{1} << 33) - 1);  // outlier count
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 53u);
  try {
    (void)deserialize_blob(bytes);
    FAIL() << "hostile outlier count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("outlier count exceeds blob size"),
              std::string::npos)
        << e.what();
  }
}

TEST(BlobSerializationFailure, DimsMismatchRejected) {
  auto blob = make_blob(5);
  blob.dims.extent[0] += 1;  // now inconsistent with the code count
  const auto bytes = serialize_blob(blob);
  EXPECT_THROW(deserialize_blob(bytes), std::invalid_argument);
}

TEST(BlobSerialization, SharedCodebookFrameRoundTrips) {
  const auto blob = make_blob(7);
  const auto slim = serialize_blob(blob, /*embed_codebook=*/false);
  const auto full = serialize_blob(blob);
  EXPECT_LT(slim.size(), full.size());

  EXPECT_THROW(deserialize_blob(slim), std::invalid_argument);
  const auto parsed = deserialize_blob(slim, &blob.encoded.codebook);
  EXPECT_EQ(serialize_blob(parsed), full);

  cudasim::SimContext c1, c2;
  const auto a = decompress(c1, blob);
  const auto b = decompress(c2, parsed);
  EXPECT_EQ(a.data, b.data);
}

}  // namespace
}  // namespace ohd::sz
