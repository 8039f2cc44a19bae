#include "cudasim/timeline.hpp"

#include <algorithm>

namespace ohd::cudasim {

void Timeline::add(const std::string& name, double seconds) {
  entries_.emplace_back(name, seconds);
  total_ += seconds;
}

void Timeline::clear() {
  entries_.clear();
  total_ = 0.0;
}

double Timeline::total_with_prefix(const std::string& prefix) const {
  double sum = 0.0;
  for (const auto& [name, seconds] : entries_) {
    if (name.rfind(prefix, 0) == 0) sum += seconds;
  }
  return sum;
}

double makespan(std::span<const double> task_seconds, std::size_t workers) {
  std::vector<double> busy(std::max<std::size_t>(1, workers), 0.0);
  for (const double s : task_seconds) {
    *std::min_element(busy.begin(), busy.end()) += s;
  }
  return *std::max_element(busy.begin(), busy.end());
}

}  // namespace ohd::cudasim
