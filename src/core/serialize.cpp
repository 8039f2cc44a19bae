#include "core/serialize.hpp"

#include <stdexcept>

#include "util/bytes.hpp"

namespace ohd::core {

namespace {

constexpr char kMagic[4] = {'O', 'H', 'D', 'H'};
constexpr std::uint8_t kVersion = 1;

void write_geometry(util::ByteWriter& w, const huffman::StreamGeometry& g) {
  w.u32(g.units_per_subseq);
  w.u32(g.subseqs_per_seq);
}

huffman::StreamGeometry read_geometry(util::ByteReader& r) {
  huffman::StreamGeometry g;
  g.units_per_subseq = r.u32();
  g.subseqs_per_seq = r.u32();
  if (g.units_per_subseq == 0 || g.units_per_subseq > 64 ||
      g.subseqs_per_seq == 0 || g.subseqs_per_seq > 1024) {
    throw std::invalid_argument("implausible stream geometry");
  }
  return g;
}

void write_stream(util::ByteWriter& w, const huffman::StreamEncoding& s) {
  w.u64(s.total_bits);
  w.u64(s.num_symbols);
  write_geometry(w, s.geometry);
  w.array<std::uint32_t>(s.units);
}

/// Every codeword is at least one bit (the degenerate one-symbol alphabet
/// emits 1-bit codes too), so a stream of `total_bits` holds at most that
/// many symbols. Checked before any decoder sizes its output from the count.
void check_symbols_fit(std::uint64_t num_symbols, std::uint64_t total_bits) {
  if (num_symbols > total_bits) {
    throw std::invalid_argument("symbol count exceeds the stream's bits");
  }
}

huffman::StreamEncoding read_stream(util::ByteReader& r) {
  huffman::StreamEncoding s;
  s.total_bits = r.u64();
  s.num_symbols = r.u64();
  s.geometry = read_geometry(r);
  s.units = r.array<std::uint32_t>();
  if (s.total_bits > s.units.size() * 32ull) {
    throw std::invalid_argument("total_bits exceeds unit payload");
  }
  check_symbols_fit(s.num_symbols, s.total_bits);
  return s;
}

}  // namespace

std::vector<std::uint8_t> serialize_stream(const EncodedStream& enc,
                                           bool include_codebook) {
  util::ByteWriter w;
  w.magic(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(enc.method));
  w.u64(enc.num_symbols);
  const auto codebook_bytes =
      include_codebook ? enc.codebook.serialize() : std::vector<std::uint8_t>{};
  w.bytes(codebook_bytes);

  if (const auto* chunked =
          std::get_if<huffman::ChunkedEncoding>(&enc.payload)) {
    w.u64(chunked->num_symbols);
    w.u32(chunked->chunk_symbols);
    w.u64(chunked->total_bits);
    w.array<std::uint64_t>(chunked->chunk_bit_offset);
    w.array<std::uint32_t>(chunked->chunk_num_symbols);
    w.array<std::uint32_t>(chunked->units);
  } else if (const auto* plain =
                 std::get_if<huffman::StreamEncoding>(&enc.payload)) {
    write_stream(w, *plain);
  } else if (const auto* gap =
                 std::get_if<huffman::GapEncoding>(&enc.payload)) {
    write_stream(w, gap->stream);
    w.array<std::uint8_t>(gap->gaps);
  }
  return w.take();
}

EncodedStream deserialize_stream(std::span<const std::uint8_t> bytes,
                                 const huffman::Codebook* shared_codebook) {
  util::ByteReader r(bytes);
  r.expect_magic(kMagic);
  if (r.u8() != kVersion) {
    throw std::invalid_argument("unsupported blob version");
  }
  const auto method = static_cast<Method>(r.u8());
  switch (method) {
    case Method::CuszNaive:
    case Method::SelfSyncOriginal:
    case Method::SelfSyncOptimized:
    case Method::GapArrayOriginal8Bit:
    case Method::GapArrayOptimized:
      break;
    default:
      throw std::invalid_argument("unknown method tag");
  }

  EncodedStream enc;
  enc.method = method;
  enc.num_symbols = r.u64();
  const auto codebook_bytes = r.array<std::uint8_t>();
  if (codebook_bytes.empty()) {
    if (shared_codebook == nullptr) {
      throw std::invalid_argument(
          "stream omits its codebook and no shared codebook was provided");
    }
    // Copied by value to keep EncodedStream self-contained (every decoder
    // and test relies on that); the ~tens-of-KB table copy per chunk is
    // noise next to the functional decode of the chunk's symbols.
    enc.codebook = *shared_codebook;
  } else {
    enc.codebook = huffman::Codebook::deserialize(codebook_bytes);
  }

  switch (method) {
    case Method::CuszNaive: {
      huffman::ChunkedEncoding chunked;
      chunked.num_symbols = r.u64();
      chunked.chunk_symbols = r.u32();
      chunked.total_bits = r.u64();
      chunked.chunk_bit_offset = r.array<std::uint64_t>();
      chunked.chunk_num_symbols = r.array<std::uint32_t>();
      chunked.units = r.array<std::uint32_t>();
      if (chunked.chunk_bit_offset.size() != chunked.chunk_num_symbols.size()) {
        throw std::invalid_argument("chunk metadata size mismatch");
      }
      if (chunked.num_symbols != enc.num_symbols) {
        throw std::invalid_argument("symbol count mismatch");
      }
      if (chunked.total_bits > chunked.units.size() * 32ull) {
        throw std::invalid_argument("total_bits exceeds unit payload");
      }
      check_symbols_fit(chunked.num_symbols, chunked.total_bits);
      enc.payload = std::move(chunked);
      break;
    }
    case Method::SelfSyncOriginal:
    case Method::SelfSyncOptimized: {
      huffman::StreamEncoding s = read_stream(r);
      if (s.num_symbols != enc.num_symbols) {
        throw std::invalid_argument("symbol count mismatch");
      }
      enc.payload = std::move(s);
      break;
    }
    case Method::GapArrayOriginal8Bit:
    case Method::GapArrayOptimized: {
      huffman::GapEncoding gap;
      gap.stream = read_stream(r);
      gap.gaps = r.array<std::uint8_t>();
      if (gap.stream.num_symbols != enc.num_symbols) {
        throw std::invalid_argument("symbol count mismatch");
      }
      if (gap.gaps.size() != gap.stream.num_subseqs()) {
        throw std::invalid_argument("gap array size mismatch");
      }
      enc.payload = std::move(gap);
      break;
    }
  }
  return enc;
}

}  // namespace ohd::core
