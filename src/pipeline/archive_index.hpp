// Index types of the "OHDC" archive: the per-field and per-chunk records an
// ArchiveWriter accumulates and an ArchiveReader parses back from the index
// section (byte layout in pipeline/wire_format.hpp). Every chunk record makes
// its chunk a self-contained frame — payload offset/length, element offset,
// chunk dims, method tag, codebook reference, CRC-32 — so any single chunk
// can be checksum-verified and decoded without touching the rest of the
// archive, which is what the batch pipeline parallelizes over and what range
// decode uses for partial reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/huffman_codec.hpp"
#include "sz/compressor.hpp"

namespace ohd::pipeline {

/// The archive format version; bump it when changing the byte layout.
inline constexpr std::uint8_t kContainerVersion = 3;

/// Parse/validation failure of an archive or one of its chunk frames.
/// Derives from std::invalid_argument so callers can handle it uniformly
/// with the other deserializers' errors.
class ContainerError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Where a chunk's Huffman codebook lives.
enum class CodebookRef : std::uint8_t {
  Private = 0,      // embedded in the chunk's frame
  SharedField = 1,  // the field's shared codebook; the frame omits its book
};

struct ChunkRecord {
  std::uint64_t payload_offset = 0;  // into the payload section
  std::uint64_t payload_bytes = 0;
  std::uint64_t elem_offset = 0;     // into the field's flat element order
  sz::Dims dims;                     // chunk geometry (slab of the field)
  core::Method method = core::Method::GapArrayOptimized;
  CodebookRef codebook_ref = CodebookRef::Private;
  std::uint32_t crc32 = 0;           // over the frame bytes
};

struct FieldEntry {
  std::string name;
  sz::Dims dims;
  double abs_error_bound = 0.0;
  std::uint32_t radius = 512;
  core::Method method = core::Method::GapArrayOptimized;  // field default
  /// Field-level codebook shared by chunks whose record says SharedField;
  /// null when the field has none. Shared so decode tasks can reference it
  /// without copying the table per chunk.
  std::shared_ptr<const huffman::Codebook> shared_codebook;
  std::vector<ChunkRecord> chunks;
};

/// Per-chunk encoding facts a writer must declare when its frames were
/// produced under a field plan (method selection and/or shared codebooks).
struct ChunkMeta {
  core::Method method = core::Method::GapArrayOptimized;
  CodebookRef codebook_ref = CodebookRef::Private;
};

struct ChunkExtent {
  std::uint64_t elem_offset = 0;
  sz::Dims dims;
};

/// Splits `dims` into chunks of whole slabs of the slowest axis, each chunk
/// totalling about `target_chunk_elems` elements (at least one slab, so a
/// chunk of a 2-D/3-D field keeps the field's rank and Lorenzo predictor;
/// slabs are contiguous in the x-fastest element order, so every chunk is a
/// contiguous span of the flat field).
std::vector<ChunkExtent> chunk_layout(const sz::Dims& dims,
                                      std::size_t target_chunk_elems);

}  // namespace ohd::pipeline
