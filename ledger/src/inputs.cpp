#include "inputs.hpp"

#include <cstring>
#include <stdexcept>

#include "sz/metrics.hpp"

namespace ledger {

using namespace ohd;

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::below(std::uint64_t n) {
  // Multiply-shift maps 64 random bits onto [0, n) with bias < n / 2^64.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * n) >> 64);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t workload_seed, Stream stream,
                          std::uint64_t index) {
  SplitMix64 mix(workload_seed);
  const std::uint64_t base = mix.next();
  SplitMix64 leaf(base ^ (static_cast<std::uint64_t>(stream) << 56) ^ index);
  return leaf.next();
}

std::vector<data::Field> make_corpus(std::uint64_t workload_seed, double scale) {
  using Generator = data::Field (*)(double, std::uint64_t);
  static constexpr Generator kGenerators[] = {
      data::make_hacc,      data::make_exaalt,  data::make_cesm,
      data::make_nyx,       data::make_hurricane, data::make_qmcpack,
      data::make_rtm,       data::make_gamess};
  std::vector<data::Field> fields;
  fields.reserve(std::size(kGenerators));
  for (std::size_t i = 0; i < std::size(kGenerators); ++i) {
    fields.push_back(
        kGenerators[i](scale, derive_seed(workload_seed, Stream::Corpus, i)));
  }
  return fields;
}

std::vector<FieldShape> archive_shape(const pipeline::ArchiveReader& reader) {
  std::vector<FieldShape> shape;
  for (const pipeline::FieldEntry& f : reader.fields()) {
    FieldShape s;
    s.elems = f.dims.count();
    for (const pipeline::ChunkRecord& c : f.chunks) {
      s.chunk_begin.push_back(c.elem_offset);
    }
    shape.push_back(std::move(s));
  }
  return shape;
}

RandomAccessStream::RandomAccessStream(std::uint64_t workload_seed,
                                       std::uint64_t client,
                                       std::vector<FieldShape> shape)
    : rng_(derive_seed(workload_seed, Stream::Client, client)),
      shape_(std::move(shape)) {
  for (std::size_t f = 0; f < shape_.size(); ++f) {
    if (shape_[f].elems < kRangeElems) {
      throw std::invalid_argument("field shorter than one range request");
    }
    for (std::size_t c = 0; c < shape_[f].chunk_begin.size(); ++c) {
      chunks_.emplace_back(f, c);
    }
  }
}

Request RandomAccessStream::next() {
  Request r;
  if (rng_.uniform() < kRangeShare) {
    r.kind = RequestKind::Range;
    r.field = rng_.below(shape_.size());
    r.begin = rng_.below(shape_[r.field].elems - kRangeElems + 1);
    r.end = r.begin + kRangeElems;
  } else {
    r.kind = RequestKind::Chunk;
    const auto [field, chunk] = chunks_[rng_.below(chunks_.size())];
    r.field = field;
    r.chunk = chunk;
  }
  return r;
}

std::span<const float> expected_slice(const Request& r,
                                      const std::vector<FieldShape>& shape,
                                      std::span<const float> field_reference) {
  if (r.kind == RequestKind::Chunk) {
    const std::uint64_t b = shape[r.field].chunk_begin[r.chunk];
    return field_reference.subspan(b, shape[r.field].chunk_end(r.chunk) - b);
  }
  return field_reference.subspan(r.begin, r.end - r.begin);
}

bool bit_identical(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool within_bound(std::span<const float> original,
                  std::span<const float> decoded, double abs_bound) {
  // The float reconstruction may land a rounding step past the bound; the
  // repository's own checks allow the same relative slack.
  return original.size() == decoded.size() &&
         sz::compute_error_stats(original, decoded).max_abs_error <=
             abs_bound * (1 + 1e-6);
}

}  // namespace ledger
