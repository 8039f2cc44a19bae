#include "sz/serialize.hpp"

#include <stdexcept>

#include "core/serialize.hpp"
#include "util/bytes.hpp"

namespace ohd::sz {

namespace {
constexpr char kMagic[4] = {'O', 'H', 'D', 'Z'};
constexpr std::uint8_t kVersion = 1;

// The wire format below must stay in sync with the size-model constants the
// accounting and the simulated scatter kernel charge per outlier record.
static_assert(kOutlierEntryBytes == sizeof(std::uint64_t) + sizeof(float));
}  // namespace

std::vector<std::uint8_t> serialize_blob(const CompressedBlob& blob,
                                         bool embed_codebook) {
  util::ByteWriter w;
  w.magic(kMagic);
  w.u8(kVersion);
  w.u32(blob.dims.rank);
  for (std::size_t e : blob.dims.extent) w.u64(e);
  w.f64(blob.abs_error_bound);
  w.u32(blob.radius);
  w.u64(blob.outliers.size());
  for (const Outlier& o : blob.outliers) {
    w.u64(o.index);
    w.f32(o.value);
  }
  const auto stream_bytes = core::serialize_stream(blob.encoded, embed_codebook);
  w.bytes(stream_bytes);
  return w.take();
}

CompressedBlob deserialize_blob(std::span<const std::uint8_t> bytes,
                                const huffman::Codebook* shared_codebook) {
  util::ByteReader r(bytes);
  r.expect_magic(kMagic);
  if (r.u8() != kVersion) {
    throw std::invalid_argument("unsupported blob version");
  }
  CompressedBlob blob;
  blob.dims.rank = r.u32();
  if (blob.dims.rank < 1 || blob.dims.rank > 3) {
    throw std::invalid_argument("implausible rank");
  }
  for (std::size_t i = 0; i < blob.dims.extent.size(); ++i) {
    blob.dims.extent[i] = r.u64();
    if (blob.dims.extent[i] == 0 ||
        (i >= blob.dims.rank && blob.dims.extent[i] != 1)) {
      throw std::invalid_argument("implausible extent");
    }
  }
  if (blob.dims.count_overflows()) {
    throw std::invalid_argument("extent product overflows");
  }
  blob.abs_error_bound = r.f64();
  if (!(blob.abs_error_bound > 0.0)) {
    throw std::invalid_argument("non-positive error bound");
  }
  blob.radius = r.u32();
  const std::uint64_t n_outliers = r.u64();
  if (n_outliers > blob.dims.count()) {
    throw std::invalid_argument("more outliers than elements");
  }
  // Bound by the bytes actually present before reserving: a short header
  // must not be able to ask for an allocation its payload cannot fill.
  if (n_outliers > r.remaining() / kOutlierEntryBytes) {
    throw std::invalid_argument("outlier count exceeds blob size");
  }
  blob.outliers.reserve(n_outliers);
  std::uint64_t prev_index = 0;
  for (std::uint64_t i = 0; i < n_outliers; ++i) {
    Outlier o;
    o.index = r.u64();
    o.value = r.f32();
    if (o.index >= blob.dims.count() || (i > 0 && o.index <= prev_index)) {
      throw std::invalid_argument("outlier indices not strictly increasing");
    }
    prev_index = o.index;
    blob.outliers.push_back(o);
  }
  const auto stream_bytes = r.array<std::uint8_t>();
  blob.encoded = core::deserialize_stream(stream_bytes, shared_codebook);
  if (blob.encoded.num_symbols != blob.dims.count()) {
    throw std::invalid_argument("code count does not match dimensions");
  }
  return blob;
}

}  // namespace ohd::sz
