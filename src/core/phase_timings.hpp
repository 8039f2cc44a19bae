// Simulated per-phase timings of a decode, mirroring the row structure of the
// paper's Table II.
#pragma once

#include <cstdint>

namespace ohd::core {

struct PhaseTimings {
  double intra_sync_s = 0.0;    // intra-sequence synchronization (self-sync)
  double inter_sync_s = 0.0;    // inter-sequence synchronization (self-sync)
  double output_index_s = 0.0;  // symbol counting (gap) + prefix sum
  double tune_s = 0.0;          // Algorithm 2 shared-memory tuning
  double decode_write_s = 0.0;  // decode + write phase
  double other_s = 0.0;         // gap-array load, small fixups

  double total() const {
    return intra_sync_s + inter_sync_s + output_index_s + tune_s +
           decode_write_s + other_s;
  }
};

}  // namespace ohd::core
