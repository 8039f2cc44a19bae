// Timing summaries for the ledger: the median plus the highest standard
// percentile that still has at least ten samples beyond it, always reported
// with the sample count so a tail read from few samples is never mistaken
// for a p99.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ledger {

/// Samples required beyond a percentile before it may be reported as the tail.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// The percentiles the tail is chosen from, ascending. Steps are fine below
/// p95, where runs with few requests land, so a small change in the request
/// count moves the tail to a neighbouring percentile, not a distant one. The
/// ladder stops at p99: on a shared 4-vCPU machine a p99.9 read from ~20
/// samples mostly measures host scheduling stalls, and its spread across
/// seeds exceeded any usable regression bound.
inline constexpr double kTailLadder[] = {50.0, 60.0, 70.0, 75.0, 80.0,
                                         85.0, 90.0, 95.0, 99.0};

struct TimingSummary {
  std::size_t count = 0;
  double p50 = 0.0;
  /// The chosen tail percentile (e.g. 99.0), or 100 when even the median has
  /// fewer than kTailSamplesBeyond samples beyond it; `tail` is then the max.
  double tail_percentile = 100.0;
  double tail = 0.0;
  /// Samples strictly after the tail's nearest rank.
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of an ascending-sorted, non-empty sample vector:
/// the value at 1-based rank ceil(pct/100 * n).
double nearest_rank(const std::vector<double>& sorted, double pct);

/// Samples after the nearest rank of `pct` among `n` samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// Summarizes `samples` (any order); an empty input yields count 0.
TimingSummary summarize(std::vector<double> samples);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// "p50 1.234 ms, p99 5.678 ms (n=1000, 10 beyond)" style label.
std::string describe(const TimingSummary& s, const char* unit);

}  // namespace ledger
