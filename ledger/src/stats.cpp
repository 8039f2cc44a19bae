#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ledger {

namespace {

std::size_t rank_of(std::size_t n, double pct) {
  const auto r = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double pct) {
  return sorted[rank_of(sorted.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - rank_of(n, pct);
}

TimingSummary summarize(std::vector<double> samples) {
  TimingSummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = nearest_rank(samples, 50.0);
  s.tail = samples.back();
  for (const double pct : kTailLadder) {
    const std::size_t beyond = samples_beyond(s.count, pct);
    if (beyond < kTailSamplesBeyond) break;
    s.tail_percentile = pct;
    s.tail = nearest_rank(samples, pct);
    s.beyond = beyond;
  }
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string describe(const TimingSummary& s, const char* unit) {
  char buf[160];
  if (s.tail_percentile >= 100.0) {
    std::snprintf(buf, sizeof buf, "p50 %.4f %s, max %.4f %s (n=%zu, too few for a tail)",
                  s.p50, unit, s.tail, unit, s.count);
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.4f %s, p%g %.4f %s (n=%zu, %zu beyond)",
                  s.p50, unit, s.tail_percentile, s.tail, unit, s.count,
                  s.beyond);
  }
  return buf;
}

}  // namespace ledger
