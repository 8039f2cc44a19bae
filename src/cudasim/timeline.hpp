// Accumulates simulated time per named phase of a (de)compression pipeline,
// and list-schedules independent simulated tasks onto virtual GPUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace ohd::cudasim {

class Timeline {
public:
  void add(const std::string& name, double seconds);
  void clear();

  /// Total simulated seconds across all entries.
  double total() const { return total_; }

  /// Sum of entries whose name starts with `prefix`.
  double total_with_prefix(const std::string& prefix) const;

  /// All entries in insertion order.
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

private:
  std::vector<std::pair<std::string, double>> entries_;
  double total_ = 0.0;
};

/// Simulated makespan of `task_seconds` on `workers` virtual GPUs (0 counts
/// as 1): a greedy list schedule in task order, each task on the
/// earliest-available worker, lowest id on ties. Deterministic and
/// machine-independent — the batch-throughput number of
/// bench/pipeline_throughput.cpp, fed with per-chunk
/// ArchiveReader::decode_chunk seconds.
double makespan(std::span<const double> task_seconds, std::size_t workers);

}  // namespace ohd::cudasim
