// Seeded, replayable inputs of the ledger. Everything a run feeds the
// program — the eight-field corpus and every client's request sequence — is
// a pure function of the workload seed, drawn from SplitMix64 streams that
// are independent per purpose and per client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/fields.hpp"
#include "pipeline/archive_io.hpp"

namespace ledger {

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state, full period, and
/// a strong output mix — enough to derive seeds and draw request choices.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t state) : state_(state) {}

  std::uint64_t next();
  /// Uniform integer in [0, n); n must be positive.
  std::uint64_t below(std::uint64_t n);
  /// Uniform double in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// What a derived seed is for; each purpose gets its own stream.
enum class Stream : std::uint64_t {
  Corpus = 1,   // index = dataset ordinal
  Client = 2,   // index = load-client ordinal
};

/// A seed for (purpose, index) derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, Stream stream,
                          std::uint64_t index);

/// The 8-field evaluation suite at `scale`, each generator seeded from the
/// workload seed; fields come in the paper's column order.
std::vector<ohd::data::Field> make_corpus(std::uint64_t workload_seed,
                                          double scale);

/// The element extent of every chunk of every field of an archive.
struct FieldShape {
  std::uint64_t elems = 0;
  std::vector<std::uint64_t> chunk_begin;  // ascending, first is 0
  std::uint64_t chunk_end(std::size_t chunk) const {
    return chunk + 1 < chunk_begin.size() ? chunk_begin[chunk + 1] : elems;
  }
};
std::vector<FieldShape> archive_shape(const ohd::pipeline::ArchiveReader& reader);

enum class RequestKind : std::uint8_t { Decompress, Chunk, Range, Compress };

struct Request {
  RequestKind kind = RequestKind::Decompress;
  std::size_t field = 0;
  std::size_t chunk = 0;       // Chunk
  std::uint64_t begin = 0;     // Range: [begin, end) in field elements
  std::uint64_t end = 0;
};

/// Share of random-access requests that are element ranges (the rest are
/// single chunks), and the length of each range.
inline constexpr double kRangeShare = 0.2;
inline constexpr std::uint64_t kRangeElems = 3 * 4096;

/// One random-access client's request sequence: a chunk picked uniformly
/// over every chunk of the archive, or (kRangeShare) a kRangeElems range at a
/// uniform offset of a uniformly picked field.
class RandomAccessStream {
 public:
  RandomAccessStream(std::uint64_t workload_seed, std::uint64_t client,
                     std::vector<FieldShape> shape);

  Request next();

 private:
  SplitMix64 rng_;
  std::vector<FieldShape> shape_;
  std::vector<std::pair<std::size_t, std::size_t>> chunks_;  // (field, chunk)
};

/// The slice of a field's reference decode a Chunk/Range request must match.
std::span<const float> expected_slice(const Request& r,
                                      const std::vector<FieldShape>& shape,
                                      std::span<const float> field_reference);

/// True when `a` and `b` hold bit-identical floats.
bool bit_identical(std::span<const float> a, std::span<const float> b);

/// True when every |decoded - original| is within abs_bound.
bool within_bound(std::span<const float> original,
                  std::span<const float> decoded, double abs_bound);

}  // namespace ledger
