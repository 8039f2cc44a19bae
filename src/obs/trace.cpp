#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace ohd::obs {

namespace {

/// Per-thread stack of open span ids — how nesting (parent linkage) is
/// derived. Thread-local rather than per-recorder: spans strictly nest via
/// ScopedOp RAII, so the stack is balanced even if the installed recorder
/// changes between operations.
thread_local std::vector<std::int64_t> t_open_spans;

std::atomic<TraceRecorder*> g_tracer{nullptr};

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

/// Spans are appended to a buffer owned by the recording thread, so threads
/// closing spans at once never contend on one lock or cache line; each
/// buffer's mutex is taken by its own thread on every append and by
/// exporters only, so it is uncontended on the hot path.
struct TraceRecorder::Impl {
  struct ThreadSpans {
    std::mutex mutex;
    std::vector<Span> spans;
    int thread_index = 0;
    std::int64_t next_seq = 0;  // owning thread only
  };

  /// Keys the thread-local buffer cache; never reused, so a cache entry for
  /// a destroyed recorder can never match a later one at the same address.
  const std::uint64_t uid = next_uid.fetch_add(1, std::memory_order_relaxed);
  mutable std::mutex mutex;  // guards threads (the list, not the spans)
  std::vector<std::unique_ptr<ThreadSpans>> threads;
  std::unordered_map<std::thread::id, ThreadSpans*> by_thread;

  static inline std::atomic<std::uint64_t> next_uid{1};

  ThreadSpans& local() {
    thread_local std::uint64_t cached_uid = 0;
    thread_local ThreadSpans* cached = nullptr;
    if (cached_uid == uid) return *cached;
    std::lock_guard<std::mutex> lock(mutex);
    ThreadSpans*& slot = by_thread[std::this_thread::get_id()];
    if (slot == nullptr) {
      threads.push_back(std::make_unique<ThreadSpans>());
      slot = threads.back().get();
      slot->thread_index = static_cast<int>(threads.size() - 1);
    }
    cached_uid = uid;
    cached = slot;
    return *slot;
  }
};

TraceRecorder::~TraceRecorder() {
  delete impl_.load(std::memory_order_acquire);
}

TraceRecorder::Impl* TraceRecorder::impl() const {
  Impl* p = impl_.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  Impl* fresh = new Impl();
  if (impl_.compare_exchange_strong(p, fresh, std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;  // lost the race
  return p;
}

TraceRecorder::ActiveSpan TraceRecorder::begin_at(std::string_view name,
                                                  std::uint64_t start_ns) {
  Impl::ThreadSpans& local = impl()->local();
  ActiveSpan s;
  // Unique per recorder without a shared counter: the thread's index in the
  // high bits, its own sequence number in the low 40.
  s.id = (std::int64_t{local.thread_index} << 40) | local.next_seq++;
  s.parent_id = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.start_ns = start_ns;
  s.name.assign(name);
  t_open_spans.push_back(s.id);
  return s;
}

void TraceRecorder::end_at(ActiveSpan&& span, std::uint64_t end_ns) {
  if (!t_open_spans.empty() && t_open_spans.back() == span.id) {
    t_open_spans.pop_back();
  }
  Impl::ThreadSpans& local = impl()->local();
  Span done;
  done.name = std::move(span.name);
  done.id = span.id;
  done.parent_id = span.parent_id;
  done.thread_index = local.thread_index;
  done.start_ns = span.start_ns;
  done.duration_ns = end_ns >= span.start_ns ? end_ns - span.start_ns : 0;
  std::lock_guard<std::mutex> lock(local.mutex);
  local.spans.push_back(std::move(done));
}

std::vector<Span> TraceRecorder::spans() const {
  Impl* p = impl_.load(std::memory_order_acquire);
  if (p == nullptr) return {};
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(p->mutex);
    for (const auto& t : p->threads) {
      std::lock_guard<std::mutex> spans_lock(t->mutex);
      all.insert(all.end(), t->spans.begin(), t->spans.end());
    }
  }
  // Completion order across threads; stable, so a child closing in the same
  // nanosecond as its parent stays ahead of it.
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns + a.duration_ns < b.start_ns + b.duration_ns;
  });
  return all;
}

void TraceRecorder::clear() {
  Impl* p = impl_.load(std::memory_order_acquire);
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(p->mutex);
  for (const auto& t : p->threads) {
    std::lock_guard<std::mutex> spans_lock(t->mutex);
    t->spans.clear();
  }
}

std::string TraceRecorder::chrome_trace_json() const {
  std::vector<Span> all = spans();
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    // Equal starts: parent before child so viewers nest them correctly.
    if (a.duration_ns != b.duration_ns) return a.duration_ns > b.duration_ns;
    return a.id < b.id;
  });
  std::uint64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::string out = "{\"traceEvents\": [";
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": \"";
    append_escaped(out, s.name);
    // trace_event ts/dur are microseconds; keep ns precision in the
    // fraction so short spans do not collapse to zero width.
    std::snprintf(buf, sizeof buf,
                  "\", \"ph\": \"X\", \"ts\": %" PRIu64 ".%03u, \"dur\": %"
                  PRIu64 ".%03u, \"pid\": 1, \"tid\": %d, ",
                  (s.start_ns - t0) / 1000,
                  static_cast<unsigned>((s.start_ns - t0) % 1000),
                  s.duration_ns / 1000,
                  static_cast<unsigned>(s.duration_ns % 1000),
                  s.thread_index);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"args\": {\"id\": %lld, \"parent\": %lld}}",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent_id));
    out += buf;
  }
  out += all.empty() ? "]}" : "\n]}";
  return out;
}

std::string TraceRecorder::sorted_text() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::int64_t, const Span*> by_id;
  by_id.reserve(all.size());
  for (const Span& s : all) by_id.emplace(s.id, &s);
  std::map<std::string, std::size_t> path_counts;
  for (const Span& s : all) {
    // Build "root/parent/.../name" by walking the parent chain.
    std::vector<std::string_view> chain;
    const Span* cur = &s;
    while (cur != nullptr) {
      chain.push_back(cur->name);
      const auto it = cur->parent_id >= 0 ? by_id.find(cur->parent_id)
                                          : by_id.end();
      cur = it == by_id.end() ? nullptr : it->second;
    }
    std::string path;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!path.empty()) path += '/';
      path += *it;
    }
    ++path_counts[path];
  }
  std::string out;
  for (const auto& [path, count] : path_counts) {
    out += path;
    out += " x";
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

TraceRecorder* tracer() { return g_tracer.load(std::memory_order_acquire); }

void set_tracer(TraceRecorder* recorder) {
  g_tracer.store(recorder, std::memory_order_release);
}

}  // namespace ohd::obs
