// Salvage and repair of damaged "OHDC" v3 archives.
//
// The v3 format's deferred index is its single point of failure: every frame
// byte range and CRC lives in the tail, so a truncated or torn archive loses
// the map to payload bytes that are still perfectly intact. Archives written
// with WriterOptions::recovery_preambles carry self-delimiting, CRC-guarded
// preambles inside the payload (wire_format.hpp); salvage_scan re-derives a
// partial index from them by re-synchronizing on the preamble magics — the
// same self-sync idea the paper's decoder uses inside a damaged bitstream —
// and trusts a frame only after BOTH its preamble CRC and its frame CRC
// pass. Nothing that failed a checksum is ever surfaced.
//
// Outcomes are first-class, not exceptions: a DecodeReport carries per-chunk
// status (Ok / Missing / Corrupt) so callers can contain damage to a
// reported hole instead of discarding a field. repair_truncated() rewrites a
// damaged archive's salvageable prefix as a fresh, strictly valid archive —
// the recovery path for a writer that died before finish().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/byte_stream.hpp"
#include "pipeline/archive_index.hpp"

namespace ohd::pipeline {

/// Outcome of one chunk in a partial decode or salvage.
enum class ChunkStatus : std::uint8_t {
  Ok = 0,       // frame CRC passed and the chunk decoded
  Missing = 1,  // no intact frame exists (truncated away or index lost)
  Corrupt = 2,  // a frame exists but failed its CRC or decode
};

/// One chunk's (or one contiguous hole's) entry in a field report.
struct ChunkReport {
  /// Chunk ordinal as written. For a Missing entry spanning several
  /// consecutive lost ordinals this is the first of them.
  std::size_t chunk = 0;
  ChunkStatus status = ChunkStatus::Ok;
  /// Element range of the field this entry covers (count 0 when the hole
  /// runs to an unknown end — the tail of a truncated field).
  std::uint64_t elem_offset = 0;
  std::uint64_t elem_count = 0;
  std::string detail;  // human-readable cause for non-Ok entries
};

struct FieldReport {
  std::string name;
  std::uint64_t elems_total = 0;  // field element count per its header
  std::uint64_t elems_ok = 0;     // elements backed by an Ok chunk
  std::vector<ChunkReport> chunks;

  std::size_t ok_count() const {
    std::size_t n = 0;
    for (const ChunkReport& c : chunks) n += c.status == ChunkStatus::Ok;
    return n;
  }
  bool complete() const {
    return elems_ok == elems_total && ok_count() == chunks.size();
  }
};

/// Per-chunk outcome of a (possibly degraded) decode across fields.
struct DecodeReport {
  std::vector<FieldReport> fields;

  bool complete() const {
    for (const FieldReport& f : fields) {
      if (!f.complete()) return false;
    }
    return true;
  }
  std::size_t chunks_ok() const {
    std::size_t n = 0;
    for (const FieldReport& f : fields) n += f.ok_count();
    return n;
  }
  std::size_t chunks_reported() const {
    std::size_t n = 0;
    for (const FieldReport& f : fields) n += f.chunks.size();
    return n;
  }
};

/// What a salvage pass saw and kept — the artifact the fault-injection CI
/// job uploads.
struct SalvageReport {
  bool header_valid = false;       // 8-byte head parsed (v3, known flags)
  bool preambles_present = false;  // header flags carried recovery preambles
  bool used_index = false;         // footer+index were intact; no scan needed
  std::uint64_t scanned_bytes = 0;
  std::uint64_t resync_skipped_bytes = 0;  // garbage walked over byte-by-byte
  std::size_t frames_recovered = 0;  // preamble CRC ok AND frame CRC ok
  std::size_t frames_rejected = 0;   // preamble CRC ok but frame bad/truncated
  std::size_t fields_recovered = 0;
  std::vector<std::string> notes;  // anomalies worth a human's attention
};

/// One recovered chunk: its ordinal as written plus a fully populated index
/// record (payload offset re-derived from where the scan found the frame).
struct SalvagedChunk {
  std::uint32_t ordinal = 0;
  ChunkRecord record;
};

struct SalvagedField {
  std::uint32_t ordinal = 0;
  /// Field header from the preamble (or the intact index); chunk list empty.
  FieldEntry header;
  /// Recovered chunks, sorted by ordinal; gaps are lost chunks.
  std::vector<SalvagedChunk> chunks;
  /// True when the recovered chunks tile the declared dims completely.
  bool complete = false;
};

struct SalvageResult {
  std::vector<SalvagedField> fields;  // sorted by field ordinal
  SalvageReport report;
};

/// Rebuilds as much of an archive's index as the bytes allow. Strategy:
/// parse the strict footer+index first (an archive that is merely
/// payload-corrupt keeps its full index; decode quarantines the bad chunks
/// later); if the tail is damaged, scan the payload for recovery preambles
/// and admit exactly the frames whose preamble AND frame CRCs pass. Never
/// throws on damage — damage shows up as absent chunks and report notes; IO
/// errors other than "short" transients still propagate as ArchiveError.
SalvageResult salvage_scan(const ByteSource& source,
                           const RetryPolicy& retry = {});

struct RepairReport {
  std::size_t fields_kept = 0;
  std::size_t fields_dropped = 0;  // nothing salvageable (no contiguous prefix)
  std::size_t chunks_kept = 0;
  std::size_t chunks_dropped = 0;  // recovered but after a hole, or truncated
  std::uint64_t output_bytes = 0;  // size of the re-finalized archive
};

/// Re-finalizes a damaged archive into `out` as a fresh, strictly valid v3
/// archive (with recovery preambles), keeping every complete frame that
/// still forms a contiguous prefix of its field: a field cut mid-stream is
/// re-declared with its slowest axis truncated to the covered slabs (chunks
/// are whole slabs by construction, see chunk_layout). Chunks recovered
/// AFTER a hole cannot be represented in a strict index and are dropped —
/// use ArchiveReader::open_salvage to reach those. Frames are replayed
/// byte-for-byte under their recovered CRCs, and the sink is committed by
/// the writer's finish() (pair with AtomicFileSink for a crash-consistent
/// repair).
RepairReport repair_truncated(const ByteSource& damaged, ByteSink& out,
                              const RetryPolicy& retry = {});

}  // namespace ohd::pipeline
