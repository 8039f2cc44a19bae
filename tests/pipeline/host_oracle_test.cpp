// Differential oracle for the served decode: every host entry point
// (BatchScheduler::decompress, BatchScheduler::decode_range,
// ArchiveReader::decode_range, ArchiveReader::decode_chunk_into) must be
// bit-identical, compared with memcmp, to the simulated
// ArchiveReader::decode_chunk on every chunk. The grid covers the four
// float-capable methods x private or shared-field codebooks x one chunk or
// many chunks, each archive holding a rank-1, a rank-2, a rank-3 and an
// outlier-heavy rank-1 field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "pipeline/batch.hpp"
#include "pipeline/wire_format.hpp"
#include "util/rng.hpp"

namespace ohd::pipeline {
namespace {

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::vector<float> smooth_field(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                              0.01 * rng.normal());
  }
  return v;
}

std::vector<float> noise_field(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal() * 1e3);
  return v;
}

using OracleParam = std::tuple<core::Method, bool /*shared*/, bool /*many*/>;

class HostDecodeOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(HostDecodeOracle, HostEntryPointsMatchSimulatedChunks) {
  const auto [method, shared, many] = GetParam();
  const std::vector<std::vector<float>> storage = {
      smooth_field(6000, 1), smooth_field(60 * 50, 2),
      smooth_field(16 * 12 * 10, 3), noise_field(2000, 4)};
  const sz::Dims dims[] = {sz::Dims::d1(6000), sz::Dims::d2(60, 50),
                           sz::Dims::d3(16, 12, 10), sz::Dims::d1(2000)};
  std::vector<FieldSpec> specs;
  for (std::size_t i = 0; i < storage.size(); ++i) {
    FieldSpec spec;
    spec.name = "f" + std::to_string(i);
    spec.data = storage[i];
    spec.dims = dims[i];
    spec.config.method = method;
    // The last field is noise at a tight bound: mostly outliers.
    spec.config.rel_error_bound = i == 3 ? 1e-7 : 1e-3;
    spec.chunk_elems = many ? 512 : std::size_t{1} << 20;
    spec.plan.shared_codebook = shared;
    specs.push_back(spec);
  }
  ThreadPool pool(3);
  const BatchScheduler sched(pool);
  const OwningMemorySource source(sched.compress(specs));
  const ArchiveReader reader(source);
  const BatchDecompressResult batch = sched.decompress(reader);
  ASSERT_EQ(batch.fields.size(), specs.size());

  std::size_t shared_refs = 0;
  for (std::size_t fi = 0; fi < reader.fields().size(); ++fi) {
    const FieldEntry& entry = reader.fields()[fi];
    EXPECT_EQ(entry.chunks.size() > 1, many) << entry.name;
    std::vector<float> simulated;
    simulated.reserve(entry.dims.count());
    for (std::size_t ci = 0; ci < entry.chunks.size(); ++ci) {
      const ChunkRecord& rec = entry.chunks[ci];
      shared_refs += rec.codebook_ref == CodebookRef::SharedField;
      cudasim::SimContext ctx;
      const sz::DecompressionResult sim = reader.decode_chunk(ctx, fi, ci);
      std::vector<float> host(rec.dims.count(), -1.0f);
      reader.decode_chunk_into(fi, ci, host);
      EXPECT_TRUE(same_bits(host, sim.data))
          << entry.name << " chunk " << ci << " decode_chunk_into";
      simulated.insert(simulated.end(), sim.data.begin(), sim.data.end());
    }
    EXPECT_TRUE(same_bits(batch.fields[fi].decode.data, simulated))
        << entry.name << " BatchScheduler::decompress";

    // Ranges: across every chunk boundary, inside one chunk, and exactly
    // one (the last) chunk.
    const std::uint64_t n = entry.dims.count();
    const ChunkRecord& last = entry.chunks.back();
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {7, n - 5},
        {last.elem_offset + 1, last.elem_offset + last.dims.count() / 2},
        {last.elem_offset, n}};
    for (const auto& [lo, hi] : ranges) {
      const std::span<const float> expect(simulated.data() + lo, hi - lo);
      EXPECT_TRUE(same_bits(sched.decode_range(reader, fi, lo, hi), expect))
          << entry.name << " BatchScheduler::decode_range [" << lo << ", "
          << hi << ")";
      EXPECT_TRUE(same_bits(reader.decode_range(fi, lo, hi), expect))
          << entry.name << " ArchiveReader::decode_range [" << lo << ", "
          << hi << ")";
    }
  }
  if (shared && many) {
    EXPECT_GT(shared_refs, 0u);
  }

  // The outlier-heavy field really is: most of its first chunk's elements
  // are stored as outlier records.
  const sz::CompressedBlob noisy = wire::parse_chunk_frame(
      reader.fields()[3], 0, reader.read_frame(3, 0));
  EXPECT_GT(noisy.outliers.size(), noisy.dims.count() / 2);
}

std::string oracle_name(const ::testing::TestParamInfo<OracleParam>& info) {
  static const char* const methods[] = {"CuszNaive", "SelfSyncOriginal",
                                        "SelfSyncOptimized",
                                        "GapArrayOriginal8Bit",
                                        "GapArrayOptimized"};
  const auto [method, shared, many] = info.param;
  return std::string(methods[static_cast<std::size_t>(method)]) +
         (shared ? "_Shared" : "_Private") + (many ? "_ManyChunks" : "_OneChunk");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HostDecodeOracle,
    ::testing::Combine(::testing::Values(core::Method::CuszNaive,
                                         core::Method::SelfSyncOriginal,
                                         core::Method::SelfSyncOptimized,
                                         core::Method::GapArrayOptimized),
                       ::testing::Bool(), ::testing::Bool()),
    oracle_name);

}  // namespace
}  // namespace ohd::pipeline
