// Shared pieces of the ledger program: the workloads, the per-run fixture
// (corpus, reference archive and reference decode), the served stack
// (CompressionService behind a loopback ServiceServer, one ServiceClient per
// load client) and the closed-loop load generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/fields.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/thread_pool.hpp"
#include "service/compression_service.hpp"
#include "spans.hpp"

namespace ledger {

enum class Workload : std::uint8_t { BulkDecode, RandomAccess, Ingest };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Scale of the 8-field suite: 16.4 MB raw, 1-D/2-D/3-D fields, CR 2.4-16.
inline constexpr double kSuiteScale = 0.25;
/// Chunk-level parallelism of the service, and the cap on load threads.
inline constexpr std::size_t kWorkers = 4;
/// Closed-loop clients per workload.
std::size_t client_count(Workload w);
/// Chunk target of the workload's archive (the pipeline rounds 2-D/3-D
/// fields to whole slabs).
std::size_t chunk_elems(Workload w);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Everything a workload is checked against, built during set-up: the
/// corpus, the reference archive compressed in-process with the served
/// session's options, and its reference decode (verified within every
/// field's error bound, so a bit-identical served output is too).
struct Fixture {
  Workload workload = Workload::BulkDecode;
  std::uint64_t seed = 0;
  std::size_t chunk_elems = 0;
  std::vector<ohd::data::Field> corpus;
  std::vector<std::uint8_t> archive;
  std::vector<std::vector<float>> reference;
  std::vector<FieldShape> shape;
  std::uint64_t raw_bytes = 0;

  ohd::service::CompressJob job() const;
  /// The pipeline specs the service builds for a session with the
  /// workload's options (session_options).
  std::vector<ohd::pipeline::FieldSpec> specs() const;
};

/// Builds the fixture; throws std::runtime_error when the reference decode
/// breaks an error bound.
Fixture build_fixture(Workload w, std::uint64_t seed, ohd::pipeline::ThreadPool& pool);

/// The session options every wire client negotiates and the reference
/// compress mirrors (server defaults plus the workload's chunk target).
ohd::service::ClientOptions session_options(std::size_t chunk_elems);

/// Service, loopback server and connected clients, torn down in reverse.
struct ServedStack {
  ServedStack(const Fixture& fx, std::size_t clients,
              ohd::service::ServiceConfig config);

  ohd::service::CompressionService service;
  ohd::net::ServiceServer server;
  std::vector<std::unique_ptr<ohd::net::ServiceClient>> clients;
  /// Per client: its upload of the fixture archive (decode workloads).
  std::vector<ohd::service::ArchiveHandle> handles;
};

/// The service configuration the ledger serves with.
ohd::service::ServiceConfig served_config();

/// Outcome of one request: ok means the response arrived and verified.
struct Outcome {
  bool ok = false;
  bool refused = false;      // ServiceBusy/Overloaded/DeadlineExceeded
  bool connection_lost = false;
  std::uint64_t bytes = 0;   // uncompressed float bytes delivered/accepted
  double latency_ms = 0.0;   // submit until the future is ready
};

/// Sends `r` through `client` and verifies the response against the
/// fixture. `job` is consumed by Compress requests. `span`, when given, is
/// closed the moment the response arrives, before verification.
Outcome execute_wire(ohd::net::ServiceClient& client,
                     ohd::service::ArchiveHandle handle, const Request& r,
                     const Fixture& fx, ohd::service::CompressJob job,
                     ScopedSpan* span = nullptr);

/// The request sequence of one load client of the fixture's workload.
class ClientRequests {
 public:
  ClientRequests(const Fixture& fx, std::size_t client);
  Request next();

 private:
  Workload workload_;
  std::optional<RandomAccessStream> random_;
};

struct LoadResult {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t bytes = 0;
  double elapsed_s = 0.0;
  double peak_rss_mb = 0.0;  // the window's RSS high-water mark
};

/// Closed loop: every client sends its next request once the previous one
/// has been answered and verified, until `seconds` have passed; the window
/// ends when the last outstanding request completes.
LoadResult drive(ServedStack& stack, const Fixture& fx,
                 std::vector<ClientRequests>& streams, double seconds);

/// End-to-end run: set up several times (median set-up time), then measure
/// the served path for `seconds` with tracing and telemetry off.
RunResult run_served(Workload w, std::uint64_t seed, double seconds);

/// Traced run: replays a sample of the workload's requests through each
/// layer's entry point, writes the Chrome trace to `trace_path`, and
/// reports the per-layer metrics.
RunResult run_layers(Workload w, std::uint64_t seed, double seconds,
                     const std::string& trace_path);

}  // namespace ledger
