// The ledger's own span recorder. Spans are recorded from the benchmark's
// files around each call into a layer's public entry point — never from
// inside the program — kept in memory, and written out once as Chrome
// trace_event JSON (the format scripts/validate_trace.py checks). Spans of
// one replayed request carry the same "req" argument, which the events of
// obs::TraceRecorder have no field for.
//
// Single-threaded: one replay thread records; nesting follows the order of
// begin/end calls on that thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

struct SpanRecord {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 for a root span
  std::uint64_t req = 0;     // request the span belongs to
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanRecorder {
 public:
  /// Opens a span as a child of the innermost open one.
  std::int64_t begin(std::string name, std::uint64_t req);
  /// Closes the innermost open span, which must be `id`; returns its record.
  const SpanRecord& end(std::int64_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace JSON: complete ("X") events sorted by start, timestamps in
  /// microseconds relative to the earliest span.
  std::string chrome_trace_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t req)
      : rec_(rec), id_(rec.begin(std::move(name), req)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early (later calls are no-ops) and returns its
  /// duration in ms.
  double close() {
    if (id_ >= 0) {
      ms_ = rec_.end(id_).ms();
      id_ = -1;
    }
    return ms_;
  }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
  double ms_ = 0.0;
};

}  // namespace ledger
