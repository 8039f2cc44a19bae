#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace ledger {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// ns as microseconds with exactly three decimals, so every printed interval
// is exact and a child never escapes its parent through rounding.
std::string micros(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  return buf;
}

}  // namespace

std::int64_t SpanRecorder::begin(std::string name, std::uint64_t req) {
  SpanRecord s;
  s.name = std::move(name);
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.req = req;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

const SpanRecord& SpanRecorder::end(std::int64_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  return s;
}

std::string SpanRecorder::chrome_trace_json() const {
  std::vector<const SpanRecord*> order;
  for (const SpanRecord& s : spans_) order.push_back(&s);
  // Ids grow in begin order, so a parent sorts before a child that starts
  // on the same nanosecond.
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                      : a->id < b->id;
  });
  const std::uint64_t t0 = order.empty() ? 0 : order.front()->start_ns;
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SpanRecord& s = *order[i];
    char args[96];
    std::snprintf(args, sizeof args,
                  "{\"id\":%" PRId64 ",\"parent\":%" PRId64 ",\"req\":%" PRIu64
                  "}",
                  s.id, s.parent, s.req);
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":\"" + json_escape(s.name) +
           "\",\"ph\":\"X\",\"ts\":" + micros(s.start_ns - t0) +
           ",\"dur\":" + micros(s.end_ns - s.start_ns) +
           ",\"pid\":1,\"tid\":0,\"args\":" + args + "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace ledger
