// Set-up and the untraced end-to-end run: the served path from
// net::ServiceClient over TCP loopback through net::ServiceServer,
// service::CompressionService and the pipeline down to sz/core, driven by
// closed-loop clients, with every response verified.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "pipeline/byte_stream.hpp"
#include "stats.hpp"

namespace ledger {

using namespace ohd;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up runs per end-to-end run; set-up time is their median.
constexpr std::size_t kSetupRuns = 3;

/// Closed-loop load before timing, part of set-up: the first requests of a
/// process run slower while the allocator and caches settle.
double warmup_seconds(Workload w) {
  switch (w) {
    case Workload::BulkDecode:
      return 2.0;
    case Workload::RandomAccess:
      return 1.0;
    case Workload::Ingest:
      return 1.5;
  }
  return 1.0;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "bulk-decode") return Workload::BulkDecode;
  if (name == "random-access") return Workload::RandomAccess;
  if (name == "ingest") return Workload::Ingest;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::BulkDecode:
      return "bulk-decode";
    case Workload::RandomAccess:
      return "random-access";
    case Workload::Ingest:
      return "ingest";
  }
  return "?";
}

std::size_t client_count(Workload w) {
  return w == Workload::RandomAccess ? kWorkers : 1;
}

std::size_t chunk_elems(Workload w) {
  return w == Workload::RandomAccess ? 4096 : std::size_t{1} << 16;
}

service::ClientOptions session_options(std::size_t chunk) {
  service::ClientOptions opt;
  opt.chunk_elems = chunk;
  return opt;
}

service::ServiceConfig served_config() {
  service::ServiceConfig cfg;
  cfg.workers = kWorkers;
  return cfg;
}

service::CompressJob Fixture::job() const {
  service::CompressJob job;
  for (const data::Field& f : corpus) job.fields.push_back({f.name, f.data, f.dims});
  return job;
}

// Mirrors CompressionService::run_compress, so the reference archive is
// what a served compress with these session options must return.
std::vector<pipeline::FieldSpec> Fixture::specs() const {
  const service::ClientOptions opt = session_options(chunk_elems);
  sz::CompressorConfig cfg;
  cfg.rel_error_bound = opt.rel_error_bound;
  cfg.radius = opt.radius;
  cfg.method = opt.method;
  cfg.decoder = opt.decoder;
  std::vector<pipeline::FieldSpec> out;
  for (const data::Field& f : corpus) {
    out.push_back({f.name, f.data, f.dims, cfg, opt.chunk_elems, opt.plan});
  }
  return out;
}

Fixture build_fixture(Workload w, std::uint64_t seed, pipeline::ThreadPool& pool) {
  Fixture fx;
  fx.workload = w;
  fx.seed = seed;
  fx.chunk_elems = chunk_elems(w);
  fx.corpus = make_corpus(seed, kSuiteScale);

  for (const data::Field& f : fx.corpus) fx.raw_bytes += f.bytes();
  const service::ClientOptions opt = session_options(fx.chunk_elems);
  const pipeline::BatchScheduler scheduler(pool);
  pipeline::MemorySink sink;
  pipeline::ArchiveWriter writer(sink);
  scheduler.compress_to(writer, fx.specs());
  writer.finish();
  fx.archive = sink.take();

  const pipeline::MemorySource source(fx.archive);
  const pipeline::ArchiveReader reader(source);
  fx.shape = archive_shape(reader);
  pipeline::BatchDecompressResult decoded =
      scheduler.decompress(reader, opt.decoder);
  for (std::size_t i = 0; i < fx.corpus.size(); ++i) {
    if (!within_bound(fx.corpus[i].data, decoded.fields[i].decode.data,
                      reader.fields()[i].abs_error_bound)) {
      throw std::runtime_error("reference decode of " + fx.corpus[i].name +
                               " breaks its error bound");
    }
    fx.reference.push_back(std::move(decoded.fields[i].decode.data));
  }
  return fx;
}

ServedStack::ServedStack(const Fixture& fx, std::size_t n,
                         service::ServiceConfig config)
    : service(config), server(service, net::ServerConfig{}) {
  for (std::size_t c = 0; c < n; ++c) {
    net::ClientConfig cfg;
    cfg.endpoint = server.endpoints().front();
    cfg.chunk_elems = fx.chunk_elems;
    clients.push_back(std::make_unique<net::ServiceClient>(cfg));
    handles.push_back(fx.workload == Workload::Ingest
                          ? 0
                          : clients.back()->open_archive(fx.archive));
  }
}

Outcome execute_wire(net::ServiceClient& client, service::ArchiveHandle handle,
                     const Request& r, const Fixture& fx,
                     service::CompressJob job, ScopedSpan* span) {
  Outcome o;
  const auto t0 = Clock::now();
  auto arrived = [&] {
    o.latency_ms = seconds_since(t0) * 1e3;
    if (span != nullptr) span->close();
  };
  try {
    switch (r.kind) {
      case RequestKind::Decompress: {
        const net::DecompressBody body = client.submit_decompress(handle).get();
        arrived();
        o.ok = body.fields.size() == fx.reference.size();
        for (std::size_t i = 0; o.ok && i < body.fields.size(); ++i) {
          o.ok = body.fields[i].name == fx.corpus[i].name &&
                 bit_identical(body.fields[i].data, fx.reference[i]);
        }
        o.bytes = fx.raw_bytes;
        break;
      }
      case RequestKind::Chunk:
      case RequestKind::Range: {
        const std::vector<float> v =
            r.kind == RequestKind::Chunk
                ? client.submit_chunk(handle, r.field, r.chunk).get()
                : client.submit_range(handle, r.field, r.begin, r.end).get();
        arrived();
        o.ok = bit_identical(v, expected_slice(r, fx.shape, fx.reference[r.field]));
        o.bytes = v.size() * sizeof(float);
        break;
      }
      case RequestKind::Compress: {
        const service::CompressResult res =
            client.submit_compress(std::move(job)).get();
        arrived();
        o.ok = res.archive == fx.archive;
        o.bytes = fx.raw_bytes;
        break;
      }
    }
  } catch (const service::ServiceBusy&) {  // includes ServiceOverloaded
    o.refused = true;
  } catch (const service::DeadlineExceeded&) {
    o.refused = true;
  } catch (const net::ConnectionLost&) {
    o.connection_lost = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: request failed: %s\n", e.what());
  }
  return o;
}

ClientRequests::ClientRequests(const Fixture& fx, std::size_t client)
    : workload_(fx.workload) {
  if (workload_ == Workload::RandomAccess) random_.emplace(fx.seed, client, fx.shape);
}

Request ClientRequests::next() {
  switch (workload_) {
    case Workload::BulkDecode:
      return Request{.kind = RequestKind::Decompress};
    case Workload::RandomAccess:
      return random_->next();
    case Workload::Ingest:
      return Request{.kind = RequestKind::Compress};
  }
  return {};
}

namespace {

// The kernel keeps each process's RSS high-water mark (VmHWM); writing "5"
// to clear_refs resets it to the current RSS, so the mark read after a load
// window is that window's exact peak, transients included.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024.0 / 1e6;
}

}  // namespace

LoadResult drive(ServedStack& stack, const Fixture& fx,
                 std::vector<ClientRequests>& streams, double seconds) {
  LoadResult out;
  std::mutex mu;
  reset_peak_rss();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < stack.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      LoadResult mine;
      while (Clock::now() < deadline) {
        const Request r = streams[c].next();
        service::CompressJob job;
        if (r.kind == RequestKind::Compress) job = fx.job();
        const Outcome o = execute_wire(*stack.clients[c], stack.handles[c], r,
                                       fx, std::move(job));
        ++mine.attempted;
        if (!o.ok) {
          ++mine.failed;
          if (o.refused) ++mine.refused;
          if (o.connection_lost) break;
          continue;
        }
        mine.bytes += o.bytes;
        mine.latency_ms.push_back(o.latency_ms);
      }
      const double elapsed = seconds_since(start);
      const std::lock_guard lock(mu);
      out.attempted += mine.attempted;
      out.failed += mine.failed;
      out.refused += mine.refused;
      out.bytes += mine.bytes;
      out.elapsed_s = std::max(out.elapsed_s, elapsed);
      out.latency_ms.insert(out.latency_ms.end(), mine.latency_ms.begin(),
                            mine.latency_ms.end());
    });
  }
  for (std::thread& t : threads) t.join();
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

namespace {

struct Setup {
  Fixture fx;
  std::unique_ptr<ServedStack> stack;
  std::vector<ClientRequests> streams;
  LoadResult warmup;
  double seconds = 0.0;
};

std::unique_ptr<Setup> set_up(Workload w, std::uint64_t seed,
                              pipeline::ThreadPool& pool) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<Setup>();
  s->fx = build_fixture(w, seed, pool);
  s->stack = std::make_unique<ServedStack>(s->fx, client_count(w), served_config());
  for (std::size_t c = 0; c < client_count(w); ++c) s->streams.emplace_back(s->fx, c);
  s->warmup = drive(*s->stack, s->fx, s->streams, warmup_seconds(w));
  s->seconds = seconds_since(t0);
  return s;
}

}  // namespace

RunResult run_served(Workload w, std::uint64_t seed, double seconds) {
  obs::set_enabled(false);
  pipeline::ThreadPool pool(kWorkers);

  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  std::uint64_t warm_attempted = 0, warm_failed = 0;
  for (std::size_t i = 0; i < kSetupRuns; ++i) {
    s.reset();
    s = set_up(w, seed, pool);
    setup_s.push_back(s->seconds);
    warm_attempted += s->warmup.attempted;
    warm_failed += s->warmup.failed;
  }

  const LoadResult load = drive(*s->stack, s->fx, s->streams, seconds);
  const TimingSummary lat = summarize(load.latency_ms);
  const std::uint64_t completed = load.latency_ms.size();

  // Warm-up requests are verified too, so they count as attempted.
  RunResult r;
  r.attempted = load.attempted + warm_attempted;
  r.failed = load.failed + warm_failed;
  r.correct = r.failed == 0 && completed > 0;
  const double failed_fraction =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.metrics = {
      {"throughput_MBps", static_cast<double>(load.bytes) / 1e6 / load.elapsed_s, "MB/s"},
      {"requests_per_s", static_cast<double>(completed) / load.elapsed_s, "1/s"},
      {"latency_p50_ms", lat.p50, "ms"},
      {"latency_tail_ms", lat.tail, "ms"},
      {"compression_ratio",
       static_cast<double>(s->fx.raw_bytes) / static_cast<double>(s->fx.archive.size()),
       "ratio"},
      {"peak_rss_MB", load.peak_rss_mb, "MB"},
      {"setup_s", median(setup_s), "s"},
  };

  const service::ServiceStats ss = s->stack->service.stats();
  const net::ServerStats sv = s->stack->server.stats();
  net::ClientStats cs;
  for (const auto& c : s->stack->clients) {
    const net::ClientStats one = c->stats();
    cs.requests_sent += one.requests_sent;
    cs.errors_received += one.errors_received;
    cs.reconnects += one.reconnects;
    cs.retries += one.retries;
  }
  std::printf("workload %s  seed %llu  clients %zu  window %.3f s\n",
              workload_name(w), static_cast<unsigned long long>(seed),
              client_count(w), load.elapsed_s);
  std::printf("  latency: %s\n", describe(lat, "ms").c_str());
  std::printf("  warm-up of the last set-up: %.2f MB/s over %zu requests\n",
              static_cast<double>(s->warmup.bytes) / 1e6 / s->warmup.elapsed_s,
              s->warmup.latency_ms.size());
  std::printf("  setup runs: ");
  for (const double v : setup_s) std::printf("%.4f s ", v);
  std::printf("(median of %zu)\n", setup_s.size());
  std::printf("  failed_fraction %.6f (%llu failed, %llu refused in the window, of %llu attempted incl. warm-up)\n",
              failed_fraction, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(load.refused),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  service: accepted %llu completed %llu failed %llu rejected %llu shed %llu expired %llu queue_depth_peak %lld\n",
              (unsigned long long)ss.accepted, (unsigned long long)ss.completed,
              (unsigned long long)ss.failed, (unsigned long long)ss.rejected(),
              (unsigned long long)ss.shed, (unsigned long long)ss.expired,
              (long long)ss.queue_depth_peak);
  std::printf("  server: frames in/out %llu/%llu bytes in/out %llu/%llu error_frames %llu\n",
              (unsigned long long)sv.frames_in, (unsigned long long)sv.frames_out,
              (unsigned long long)sv.bytes_in, (unsigned long long)sv.bytes_out,
              (unsigned long long)sv.error_frames);
  std::printf("  clients: sent %llu errors %llu reconnects %llu retries %llu\n",
              (unsigned long long)cs.requests_sent,
              (unsigned long long)cs.errors_received,
              (unsigned long long)cs.reconnects, (unsigned long long)cs.retries);
  return r;
}

}  // namespace ledger
