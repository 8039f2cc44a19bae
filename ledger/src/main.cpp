// Served-path layer ledger.
//
//   ledger --workload <bulk-decode|random-access|ingest> --seed <n>
//          --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics of the served path with
// tracing and telemetry off; --trace 1 replays a sample of the workload's
// requests layer by layer, writes the spans as Chrome trace JSON to
// --trace-out, and reports the per-layer metrics. Human-readable lines come
// first; the last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}
// The exit code is nonzero when any output failed verification.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "ledger.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ledger --workload <bulk-decode|random-access|ingest> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

void print_result(const ledger::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    out += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out = "ledger_trace.json";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return usage();
    } else if (key == "--trace") {
      trace = std::string(val) == "1" ? 1 : std::string(val) == "0" ? 0 : -1;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
  }
  const auto w = ledger::parse_workload(workload);
  if (argc % 2 == 0 || !w || !have_seed || !(seconds > 0.0) || trace < 0) {
    return usage();
  }
  std::printf("ledger: workload %s seed %" PRIu64 " seconds %g trace %d\n",
              workload.c_str(), seed, seconds, trace);
  try {
    const ledger::RunResult r =
        trace ? ledger::run_layers(*w, seed, seconds, trace_out)
              : ledger::run_served(*w, seed, seconds);
    for (const ledger::Metric& m : r.metrics) {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::fflush(stdout);
    print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 1;
  }
}
