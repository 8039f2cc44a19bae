// Pipeline tracing: per-operation spans (name, thread, start/duration ns,
// parent op) recorded by an installable TraceRecorder and exported either as
// Chrome trace_event JSON (load in chrome://tracing or https://ui.perfetto.dev)
// or as a deterministic sorted text form for tests.
//
// Recording follows the same gating discipline as obs/metrics.hpp: nothing is
// recorded unless obs::enabled() AND a recorder is installed via
// set_tracer(), so the disabled path is one relaxed load and a branch.
// Span nesting is tracked per thread (a thread-local stack), which matches
// how the pipeline actually nests work: BatchScheduler phases nest on the
// calling thread, while each ThreadPool task is a fresh root span on its
// worker thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace ohd::obs {

/// One completed operation.
struct Span {
  std::string name;
  std::int64_t id = -1;
  std::int64_t parent_id = -1;  ///< -1 for a thread-root span
  int thread_index = 0;         ///< dense per-recorder index, not an OS tid
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// Collects spans from any number of threads. begin/end touch no state
/// shared between threads on the hot path: begin draws the id from the
/// calling thread's own sequence and pushes a thread-local stack; end
/// appends to a buffer owned by the calling thread under that buffer's own,
/// uncontended mutex. Exporters merge the per-thread buffers.
class TraceRecorder {
 public:
  /// In-flight span handle, held by ScopedOp between begin and end.
  struct ActiveSpan {
    std::int64_t id = -1;
    std::int64_t parent_id = -1;
    std::uint64_t start_ns = 0;
    std::string name;
  };

  /// Opens a span starting at `start_ns` (caller supplies the clock read so
  /// one now_ns() feeds both the span and any latency histogram).
  ActiveSpan begin_at(std::string_view name, std::uint64_t start_ns);

  /// Closes `span` at `end_ns` and appends it to the trace.
  void end_at(ActiveSpan&& span, std::uint64_t end_ns);

  /// Snapshot of all completed spans, in completion order.
  std::vector<Span> spans() const;

  void clear();

  /// Chrome trace_event JSON: one complete ("ph":"X") event per span, ts/dur
  /// in microseconds relative to the earliest span start, sorted by ts so
  /// timestamps are monotone. Loadable in chrome://tracing and Perfetto.
  std::string chrome_trace_json() const;

  /// Deterministic text form for tests: spans aggregated by their full
  /// parent path (names joined with '/'), one "path xCOUNT" line per path,
  /// sorted lexicographically. No timestamps or thread ids, so the output is
  /// identical across runs and worker counts for a deterministic pipeline.
  std::string sorted_text() const;

 private:
  struct Impl;
  Impl* impl() const;
  mutable std::atomic<Impl*> impl_{nullptr};

 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder();
};

/// Process-wide recorder slot (nullptr when tracing is off). The recorder is
/// borrowed, not owned: the caller keeps it alive while installed.
TraceRecorder* tracer();
void set_tracer(TraceRecorder* recorder);

/// RAII measurement of one operation: a single clock-read pair feeds an
/// optional LatencyHistogram and, when a recorder is installed, a trace
/// span. Costs nothing beyond the enabled() check while telemetry is off.
class ScopedOp {
 public:
  explicit ScopedOp(std::string_view name,
                    LatencyHistogram* histogram = nullptr) {
    if (!enabled()) return;
    armed_ = true;
    histogram_ = histogram;
    start_ns_ = now_ns();
    recorder_ = tracer();
    if (recorder_ != nullptr) {
      span_ = recorder_->begin_at(name, start_ns_);
    }
  }

  ~ScopedOp() {
    if (!armed_) return;
    const std::uint64_t end_ns = now_ns();
    if (histogram_ != nullptr) histogram_->record(end_ns - start_ns_);
    if (recorder_ != nullptr) recorder_->end_at(std::move(span_), end_ns);
  }

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  bool armed_ = false;
  LatencyHistogram* histogram_ = nullptr;
  TraceRecorder* recorder_ = nullptr;
  TraceRecorder::ActiveSpan span_;
  std::uint64_t start_ns_ = 0;
};

/// Test/bench harness: enables telemetry, resets the process registry, and
/// (optionally) installs a recorder for the scope's lifetime, restoring the
/// previous enable flag and tracer — and re-resetting the registry — on
/// exit, so runs are isolated from each other.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(TraceRecorder* recorder = nullptr)
      : prev_enabled_(enabled()), prev_tracer_(tracer()) {
    registry().reset();
    set_tracer(recorder);
    set_enabled(true);
  }

  ~ScopedTelemetry() {
    set_enabled(prev_enabled_);
    set_tracer(prev_tracer_);
    registry().reset();
  }

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  bool prev_enabled_;
  TraceRecorder* prev_tracer_;
};

}  // namespace ohd::obs
