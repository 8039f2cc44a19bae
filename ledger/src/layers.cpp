// The traced run: per-layer metrics of the served path.
//
// Spans come from this file only, around calls into each layer's public
// entry point. Phase A replays a sample of the workload's requests one at a
// time through every layer in turn — the wire (net::ServiceClient), the
// in-process CompressionService, the pipeline (BatchScheduler /
// ArchiveReader) and the per-chunk sz calls — on a one-worker,
// one-dispatcher stack, so each layer's call contains the work of the layer
// below it and self time is the difference. Phase B runs each layer's entry
// points over the whole workload archive (decode and encode passes, batch
// decode at 1 and kWorkers workers, ranges, compress). Phase C drives the
// served configuration under the workload's own load with telemetry off and
// on. Every output is verified as in the untraced run.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "core/decode_write.hpp"
#include "cudasim/exec.hpp"
#include "ledger.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "sz/compressor.hpp"
#include "sz/serialize.hpp"
#include "util/bytes.hpp"

namespace ledger {

using namespace ohd;

namespace {

/// Requests replayed layer by layer in phase A.
std::size_t sample_size(Workload w) {
  return w == Workload::RandomAccess ? 200 : 5;
}
/// Range requests timed through BatchScheduler::decode_range.
constexpr std::size_t kRangeSample = 40;
/// Repeats of each whole-archive pipeline pass (median reported).
constexpr int kPassRepeats = 3;
constexpr int kOpenRepeats = 5;

double mb_per_s(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / 1e6 / seconds : 0.0;
}

struct ChunkRef {
  std::size_t field = 0;
  std::size_t chunk = 0;
};

struct DecodeTally {
  std::vector<double> parse_us;
  double fetch_bytes = 0.0, fetch_s = 0.0;
  double served_bytes[3] = {}, served_s[3] = {};
  double rank1_served_s = 0.0, rank1_host_s = 0.0, rank1_bytes = 0.0;
  double symbols = 0.0, moved_bytes = 0.0, host_decode_s = 0.0;
  double quant_code_bytes = 0.0, sim_huffman_s = 0.0;
};

struct EncodeTally {
  double field_bytes = 0.0, range_s = 0.0;
  double chunk_bytes = 0.0, quantize_s = 0.0, encode_s = 0.0, serialize_s = 0.0;
};

class LayerRun {
 public:
  LayerRun(Workload w, std::uint64_t seed, double seconds);

  RunResult run(const std::string& trace_path);

 private:
  void check(bool ok, const char* what) { count(1, ok ? 0 : 1, what); }
  void count(std::uint64_t attempted, std::uint64_t failed, const char* what);
  void metric(std::string name, double value, std::string unit);
  /// Reports the median of `samples` and prints it with its sample count.
  void timing(const char* name, const std::vector<double>& samples,
              const char* unit);

  std::vector<ChunkRef> touched(const Request& r) const;
  std::span<const float> reference(ChunkRef c) const;
  /// True when a batch decode equals the reference decode, field by field.
  bool same_fields(const pipeline::BatchDecompressResult& res) const;

  // Each call closes `span` as soon as the layer returns, then verifies.
  bool direct_call(service::CompressionService& svc, service::ClientId id,
                   service::ArchiveHandle h, const Request& r,
                   service::CompressJob job, ScopedSpan& span);
  bool pipeline_call(const pipeline::BatchScheduler& sched, const Request& r,
                     ScopedSpan& span);
  double codec_roundtrip(const Request& r, std::uint64_t req,
                         double& codec_seconds);
  void decode_chunk(ChunkRef c, std::uint64_t req, DecodeTally* tally);
  void encode_chunks(const std::vector<ChunkRef>& chunks, std::uint64_t req,
                     EncodeTally* tally);

  void replay_requests();
  void layer_passes();
  void load_burst();

  Fixture fx_;
  double seconds_;
  service::ClientOptions opt_;
  std::vector<pipeline::FieldSpec> specs_;
  pipeline::ThreadPool pool1_{1};
  pipeline::ThreadPool pool4_{kWorkers};
  pipeline::BatchScheduler sched1_{pool1_};
  pipeline::BatchScheduler sched4_{pool4_};
  std::unique_ptr<pipeline::MemorySource> source_;
  std::unique_ptr<pipeline::ArchiveReader> reader_;
  SpanRecorder rec_;
  std::uint64_t next_req_ = 0;
  std::uint64_t replay_retries_ = 0;
  RunResult result_;
};

LayerRun::LayerRun(Workload w, std::uint64_t seed, double seconds)
    : seconds_(seconds) {
  fx_ = build_fixture(w, seed, pool4_);
  opt_ = session_options(fx_.chunk_elems);
  specs_ = fx_.specs();
  source_ = std::make_unique<pipeline::MemorySource>(fx_.archive);
  reader_ = std::make_unique<pipeline::ArchiveReader>(*source_);
}

void LayerRun::count(std::uint64_t attempted, std::uint64_t failed,
                     const char* what) {
  result_.attempted += attempted;
  if (failed != 0) {
    result_.failed += failed;
    result_.correct = false;
    std::fprintf(stderr, "ledger: %llu failed: %s\n",
                 static_cast<unsigned long long>(failed), what);
  }
}

void LayerRun::metric(std::string name, double value, std::string unit) {
  result_.metrics.push_back({std::move(name), value, std::move(unit)});
}

void LayerRun::timing(const char* name, const std::vector<double>& samples,
                      const char* unit) {
  const TimingSummary t = summarize(samples);
  std::printf("  %s: %s\n", name, describe(t, unit).c_str());
  metric(name, t.p50, unit);
}

std::vector<ChunkRef> LayerRun::touched(const Request& r) const {
  std::vector<ChunkRef> out;
  if (r.kind == RequestKind::Chunk) return {{r.field, r.chunk}};
  for (std::size_t f = 0; f < fx_.shape.size(); ++f) {
    if (r.kind == RequestKind::Range && f != r.field) continue;
    const FieldShape& s = fx_.shape[f];
    for (std::size_t c = 0; c < s.chunk_begin.size(); ++c) {
      if (r.kind == RequestKind::Range &&
          (s.chunk_end(c) <= r.begin || s.chunk_begin[c] >= r.end)) {
        continue;
      }
      out.push_back({f, c});
    }
  }
  return out;
}

std::span<const float> LayerRun::reference(ChunkRef c) const {
  const FieldShape& s = fx_.shape[c.field];
  const std::uint64_t b = s.chunk_begin[c.chunk];
  return std::span<const float>(fx_.reference[c.field])
      .subspan(b, s.chunk_end(c.chunk) - b);
}

bool LayerRun::direct_call(service::CompressionService& svc,
                           service::ClientId id, service::ArchiveHandle h,
                           const Request& r, service::CompressJob job,
                           ScopedSpan& span) {
  switch (r.kind) {
    case RequestKind::Decompress: {
      const pipeline::BatchDecompressResult res =
          svc.submit_decompress(id, h).get();
      span.close();
      return same_fields(res);
    }
    case RequestKind::Chunk:
    case RequestKind::Range: {
      const std::vector<float> v =
          r.kind == RequestKind::Chunk
              ? svc.submit_chunk(id, h, r.field, r.chunk).get()
              : svc.submit_range(id, h, r.field, r.begin, r.end).get();
      span.close();
      return bit_identical(v, expected_slice(r, fx_.shape, fx_.reference[r.field]));
    }
    case RequestKind::Compress: {
      const service::CompressResult res = svc.submit_compress(id, std::move(job)).get();
      span.close();
      return res.archive == fx_.archive;
    }
  }
  return false;
}

bool LayerRun::pipeline_call(const pipeline::BatchScheduler& sched,
                             const Request& r, ScopedSpan& span) {
  switch (r.kind) {
    case RequestKind::Decompress: {
      const pipeline::BatchDecompressResult res =
          sched.decompress(*reader_, opt_.decoder);
      span.close();
      return same_fields(res);
    }
    case RequestKind::Chunk:
    case RequestKind::Range: {
      cudasim::SimContext ctx;
      const std::vector<float> v =
          r.kind == RequestKind::Chunk
              ? reader_->decode_chunk(ctx, r.field, r.chunk, opt_.decoder).data
              : sched.decode_range(*reader_, r.field, r.begin, r.end, opt_.decoder);
      span.close();
      return bit_identical(v, expected_slice(r, fx_.shape, fx_.reference[r.field]));
    }
    case RequestKind::Compress: {
      pipeline::MemorySink sink;
      pipeline::ArchiveWriter writer(sink);
      sched.compress_to(writer, specs_);
      writer.finish();
      span.close();
      return sink.bytes() == fx_.archive;
    }
  }
  return false;
}

bool LayerRun::same_fields(const pipeline::BatchDecompressResult& res) const {
  bool ok = res.fields.size() == fx_.reference.size();
  for (std::size_t i = 0; ok && i < res.fields.size(); ++i) {
    ok = bit_identical(res.fields[i].decode.data, fx_.reference[i]);
  }
  return ok;
}

// Encodes the request's response body as the server does, then times the
// frame codec round trip a response takes: encode_frame on the server,
// parse_frame + verify_payload on the client. Adds the round trip's time to
// `codec_seconds` and returns the body bytes.
double LayerRun::codec_roundtrip(const Request& r, std::uint64_t req,
                                 double& codec_seconds) {
  util::ByteWriter w;
  net::RequestOp op = net::RequestOp::Decompress;
  switch (r.kind) {
    case RequestKind::Decompress: {
      net::DecompressBody body;
      for (std::size_t f = 0; f < fx_.corpus.size(); ++f) {
        body.fields.push_back({fx_.corpus[f].name, fx_.reference[f]});
      }
      net::write_decompress_result(w, body);
      break;
    }
    case RequestKind::Chunk:
    case RequestKind::Range:
      op = r.kind == RequestKind::Chunk ? net::RequestOp::Chunk
                                        : net::RequestOp::Range;
      net::write_floats(w, expected_slice(r, fx_.shape, fx_.reference[r.field]));
      break;
    case RequestKind::Compress:
      op = net::RequestOp::Compress;
      w.bytes(fx_.archive);
      break;
  }
  net::FrameHeader h;
  h.type = net::FrameType::Response;
  h.op = op;
  h.request_id = req + 1;
  ScopedSpan s(rec_, "net.codec", req);
  const std::vector<std::uint8_t> frame = net::encode_frame(h, w.bytes());
  const net::Frame parsed = net::parse_frame(frame);
  net::verify_payload(parsed.header, parsed.payload);
  codec_seconds += s.close() * 1e-3;
  check(parsed.payload.size() == w.size() &&
            std::equal(parsed.payload.begin(), parsed.payload.end(),
                       w.bytes().begin()),
        "frame codec round trip");
  return static_cast<double>(w.size());
}

// One chunk through the pipeline's fetch and sz's parse + served decode
// (a fresh SimContext per chunk, as the service does). With a tally it also
// runs the host paths that are not served today: core::host_decode_symbols
// and, for rank-1 chunks, sz::fused_decode_reconstruct.
void LayerRun::decode_chunk(ChunkRef c, std::uint64_t req, DecodeTally* tally) {
  const pipeline::FieldEntry& field = reader_->fields()[c.field];
  const pipeline::ChunkRecord& rec = field.chunks[c.chunk];
  const std::span<const float> expect = reference(c);
  const double bytes = static_cast<double>(expect.size_bytes());

  ScopedSpan fetch(rec_, "pipeline.fetch", req);
  const std::vector<std::uint8_t> frame = reader_->read_frame(c.field, c.chunk);
  const double fetch_ms = fetch.close();

  const huffman::Codebook* shared =
      rec.codebook_ref == pipeline::CodebookRef::SharedField
          ? field.shared_codebook.get()
          : nullptr;
  ScopedSpan parse(rec_, "sz.parse", req);
  const sz::CompressedBlob blob = sz::deserialize_blob(frame, shared);
  const double parse_ms = parse.close();

  std::vector<float> out(expect.size());
  ScopedSpan decode(rec_, "sz.decode", req);
  cudasim::SimContext ctx;
  const sz::DecompressionResult res =
      sz::decompress_into(ctx, blob, out, opt_.decoder);
  const double decode_ms = decode.close();
  check(bit_identical(out, expect), "sz::decompress_into chunk");
  if (tally == nullptr) return;

  const std::size_t rank = std::clamp<std::size_t>(blob.dims.rank, 1, 3) - 1;
  tally->parse_us.push_back(parse_ms * 1e3);
  tally->fetch_bytes += static_cast<double>(frame.size());
  tally->fetch_s += fetch_ms * 1e-3;
  tally->served_bytes[rank] += bytes;
  tally->served_s[rank] += decode_ms * 1e-3;
  tally->quant_code_bytes += static_cast<double>(blob.quant_code_bytes());
  tally->sim_huffman_s += res.huffman_seconds;

  std::uint64_t symbols = 0, fold = 0;
  ScopedSpan host(rec_, "core.host_decode", req);
  core::host_decode_symbols(blob.encoded, [&](std::uint16_t s) {
    ++symbols;
    fold += s;
  });
  tally->host_decode_s += host.close() * 1e-3;
  check(symbols == blob.encoded.num_symbols && fold != ~std::uint64_t{0},
        "core::host_decode_symbols symbol count");
  tally->symbols += static_cast<double>(symbols);
  tally->moved_bytes += static_cast<double>(blob.encoded.compressed_bytes()) +
                        2.0 * static_cast<double>(symbols);

  if (rank == 0) {
    std::vector<float> fused(expect.size());
    ScopedSpan f(rec_, "sz.host_fused", req);
    sz::fused_decode_reconstruct(blob, fused);
    tally->rank1_host_s += f.close() * 1e-3;
    tally->rank1_served_s += decode_ms * 1e-3;
    tally->rank1_bytes += bytes;
    check(bit_identical(fused, expect), "sz::fused_decode_reconstruct chunk");
  }
}

// The compress half for the given chunks: the field range scan once per
// field, then quantize, encode and serialize per chunk. Each frame must come
// out byte-identical to the archive's.
void LayerRun::encode_chunks(const std::vector<ChunkRef>& chunks,
                             std::uint64_t req, EncodeTally* tally) {
  std::size_t scanned_field = fx_.corpus.size();
  double abs_bound = 0.0;
  for (const ChunkRef& c : chunks) {
    const pipeline::FieldEntry& field = reader_->fields()[c.field];
    const pipeline::ChunkRecord& rec = field.chunks[c.chunk];
    const pipeline::FieldSpec& fs = specs_[c.field];
    if (c.field != scanned_field) {
      ScopedSpan range(rec_, "sz.range", req);
      abs_bound = sz::resolve_error_bound(fs.data, fs.config.rel_error_bound);
      const double ms = range.close();
      check(abs_bound == field.abs_error_bound, "sz::resolve_error_bound");
      scanned_field = c.field;
      if (tally != nullptr) {
        tally->field_bytes += static_cast<double>(fs.data.size_bytes());
        tally->range_s += ms * 1e-3;
      }
    }
    const std::span<const float> slice =
        fs.data.subspan(rec.elem_offset, rec.dims.count());

    ScopedSpan quantize(rec_, "sz.quantize", req);
    sz::QuantizedField q =
        sz::quantize_with_abs_bound(slice, rec.dims, abs_bound, fs.config);
    const double quantize_ms = quantize.close();

    ScopedSpan encode(rec_, "sz.encode", req);
    const sz::CompressedBlob blob =
        sz::encode_quantized(std::move(q), rec.method, fs.config);
    const double encode_ms = encode.close();

    ScopedSpan serialize(rec_, "sz.serialize", req);
    const std::vector<std::uint8_t> frame = sz::serialize_blob(blob);
    const double serialize_ms = serialize.close();

    check(frame == reader_->read_frame(c.field, c.chunk),
          "re-encoded frame matches the archive");
    if (tally != nullptr) {
      tally->chunk_bytes += static_cast<double>(slice.size_bytes());
      tally->quantize_s += quantize_ms * 1e-3;
      tally->encode_s += encode_ms * 1e-3;
      tally->serialize_s += serialize_ms * 1e-3;
    }
  }
}

// Phase A: the sample, one request at a time through every layer.
void LayerRun::replay_requests() {
  service::ServiceConfig one = served_config();
  one.workers = 1;
  one.dispatchers = 1;
  ServedStack stack(fx_, 1, one);
  service::CompressionService& svc = stack.service;
  const service::ClientId direct = svc.open_client(opt_);
  const service::ArchiveHandle direct_handle =
      fx_.workload == Workload::Ingest
          ? 0
          : svc.open_archive(direct, std::make_shared<pipeline::OwningMemorySource>(
                                         fx_.archive));

  ClientRequests stream(fx_, 0);
  std::vector<Request> sample;
  for (std::size_t i = 0; i < sample_size(fx_.workload); ++i) {
    sample.push_back(stream.next());
  }
  auto job_for = [&](const Request& r) {
    return r.kind == RequestKind::Compress ? fx_.job() : service::CompressJob{};
  };

  const net::ServerStats before = stack.server.stats();
  std::vector<double> wire_ms, untraced_ms, service_ms, overhead_ms;
  double codec_bytes = 0.0, codec_s = 0.0;
  // Each request also goes over the wire once without spans, before or
  // after its traced replay in alternation: the base of the trace overhead.
  auto untraced = [&](const Request& r) {
    const Outcome o = execute_wire(*stack.clients[0], stack.handles[0], r, fx_,
                                   job_for(r));
    check(o.ok, "untraced wire request");
    untraced_ms.push_back(o.latency_ms);
  };
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Request& r = sample[i];
    if (i % 2 == 0) untraced(r);
    const std::uint64_t req = next_req_++;
    ScopedSpan root(rec_, "request", req);

    // The three layer calls rotate their order from request to request, so
    // no layer always runs on the caches and allocator state another left.
    auto wire_call = [&] {
      service::CompressJob job = job_for(r);
      ScopedSpan span(rec_, "net.wire", req);
      const Outcome o = execute_wire(*stack.clients[0], stack.handles[0], r,
                                     fx_, std::move(job), &span);
      wire_ms.push_back(span.close());
      check(o.ok, "wire request");
    };
    auto service_call = [&] {
      service::CompressJob job = job_for(r);
      ScopedSpan span(rec_, "service.call", req);
      const bool ok =
          direct_call(svc, direct, direct_handle, r, std::move(job), span);
      service_ms.push_back(span.close());
      check(ok, "in-process service request");
    };
    auto pipeline_layer_call = [&] {
      ScopedSpan span(rec_, "pipeline.call", req);
      check(pipeline_call(sched1_, r, span), "pipeline request");
    };
    const std::function<void()> calls[] = {wire_call, service_call,
                                           pipeline_layer_call};
    for (std::size_t k = 0; k < 3; ++k) calls[(i + k) % 3]();
    overhead_ms.push_back(wire_ms.back() - service_ms.back());

    if (r.kind == RequestKind::Compress) {
      encode_chunks(touched(r), req, nullptr);
    } else {
      for (const ChunkRef& c : touched(r)) decode_chunk(c, req, nullptr);
    }

    codec_bytes += codec_roundtrip(r, req, codec_s);
    root.close();
    if (i % 2 == 1) untraced(r);
  }
  const net::ServerStats after = stack.server.stats();

  timing("net.overhead_ms", overhead_ms, "ms");
  metric("net.frame_codec_MBps", mb_per_s(codec_bytes, codec_s), "MB/s");
  metric("net.bytes_per_request",
         static_cast<double>((after.bytes_in - before.bytes_in) +
                             (after.bytes_out - before.bytes_out)) /
             static_cast<double>(2 * sample.size()),  // traced + untraced
         "bytes");
  timing("service.request_ms", service_ms, "ms");
  metric("bench.trace_overhead_fraction",
         median(wire_ms) / median(untraced_ms) - 1.0, "fraction");
  const net::ClientStats cs = stack.clients[0]->stats();
  replay_retries_ = cs.retries + cs.reconnects + cs.errors_received;
  std::printf("  replay: %zu requests, wire %s\n", sample.size(),
              describe(summarize(wire_ms), "ms").c_str());
}

// Phase B: each layer's entry points over the whole workload archive.
void LayerRun::layer_passes() {
  std::vector<ChunkRef> all;
  for (std::size_t f = 0; f < fx_.shape.size(); ++f) {
    for (std::size_t c = 0; c < fx_.shape[f].chunk_begin.size(); ++c) {
      all.push_back({f, c});
    }
  }
  const double raw = static_cast<double>(fx_.raw_bytes);

  DecodeTally d;
  {
    const std::uint64_t req = next_req_++;
    ScopedSpan root(rec_, "pass.decode", req);
    for (const ChunkRef& c : all) decode_chunk(c, req, &d);
  }
  EncodeTally e;
  {
    const std::uint64_t req = next_req_++;
    ScopedSpan root(rec_, "pass.encode", req);
    encode_chunks(all, req, &e);
  }

  std::vector<double> open_ms;
  for (int i = 0; i < kOpenRepeats; ++i) {
    ScopedSpan s(rec_, "pipeline.open", next_req_++);
    const pipeline::ArchiveReader r(*source_);
    open_ms.push_back(s.close());
  }

  // Batch decode at 1 and kWorkers workers, each on a fresh reader so its
  // frame-residency gauge covers exactly this pass.
  auto batch_pass = [&](const pipeline::BatchScheduler& sched, const char* name,
                        const pipeline::ArchiveReader& reader) {
    std::vector<double> s_each;
    for (int i = 0; i < kPassRepeats; ++i) {
      ScopedSpan s(rec_, name, next_req_++);
      const pipeline::BatchDecompressResult res =
          sched.decompress(reader, opt_.decoder);
      s_each.push_back(s.close() * 1e-3);
      check(same_fields(res), name);
    }
    std::printf("  %s:", name);
    for (const double t : s_each) std::printf(" %.1f", mb_per_s(raw, t));
    std::printf(" MB/s\n");
    return mb_per_s(raw, median(s_each));
  };
  const pipeline::ArchiveReader reader1(*source_), reader4(*source_);
  const double w1 = batch_pass(sched1_, "pipeline.batch_decode.w1", reader1);
  const double w4 = batch_pass(sched4_, "pipeline.batch_decode.w4", reader4);
  const double lanes = static_cast<double>(
      std::min<unsigned>(kWorkers, std::max(1u, std::thread::hardware_concurrency())));

  // The workload's range requests (for workloads without ranges, the same
  // generator over the workload's archive).
  RandomAccessStream ranges(fx_.seed, 0, fx_.shape);
  std::vector<double> range_ms;
  double returned = 0.0, decoded = 0.0;
  while (range_ms.size() < kRangeSample) {
    const Request r = ranges.next();
    if (r.kind != RequestKind::Range) continue;
    const std::uint64_t req = next_req_++;
    ScopedSpan s(rec_, "pipeline.range", req);
    const std::vector<float> v =
        sched4_.decode_range(*reader_, r.field, r.begin, r.end, opt_.decoder);
    range_ms.push_back(s.close());
    check(bit_identical(v, expected_slice(r, fx_.shape, fx_.reference[r.field])),
          "BatchScheduler::decode_range");
    returned += static_cast<double>(r.end - r.begin);
    for (const ChunkRef& c : touched(r)) {
      decoded += static_cast<double>(fx_.shape[c.field].chunk_end(c.chunk) -
                                     fx_.shape[c.field].chunk_begin[c.chunk]);
    }
  }

  std::vector<double> compress_s;
  for (int i = 0; i < kPassRepeats; ++i) {
    pipeline::MemorySink sink;
    ScopedSpan s(rec_, "pipeline.compress.w4", next_req_++);
    pipeline::ArchiveWriter writer(sink);
    sched4_.compress_to(writer, specs_);
    writer.finish();
    compress_s.push_back(s.close() * 1e-3);
    check(sink.bytes() == fx_.archive, "BatchScheduler::compress_to");
  }

  metric("pipeline.batch_decode_MBps", w1, "MB/s");
  metric("pipeline.batch_scaling", w4 / w1 / lanes, "ratio");
  timing("pipeline.range_decode_ms", range_ms, "ms");
  metric("pipeline.range_useful_fraction", returned / decoded, "fraction");
  metric("pipeline.fetch_MBps", mb_per_s(d.fetch_bytes, d.fetch_s), "MB/s");
  timing("pipeline.open_ms", open_ms, "ms");
  metric("pipeline.peak_frame_bytes",
         static_cast<double>(reader4.peak_frame_bytes()), "bytes");
  metric("pipeline.compress_MBps", mb_per_s(raw, median(compress_s)), "MB/s");
  timing("sz.blob_parse_us", d.parse_us, "us");
  for (int r = 0; r < 3; ++r) {
    metric("sz.served_decode_MBps.rank" + std::to_string(r + 1),
           mb_per_s(d.served_bytes[r], d.served_s[r]), "MB/s");
  }
  metric("sz.host_decode_MBps.rank1", mb_per_s(d.rank1_bytes, d.rank1_host_s),
         "MB/s");
  metric("sz.range_MBps", mb_per_s(e.field_bytes, e.range_s), "MB/s");
  metric("sz.quantize_MBps", mb_per_s(e.chunk_bytes, e.quantize_s), "MB/s");
  metric("sz.encode_MBps", mb_per_s(e.chunk_bytes, e.encode_s), "MB/s");
  metric("sz.serialize_MBps", mb_per_s(e.chunk_bytes, e.serialize_s), "MB/s");
  metric("core.host_decode_Msym_per_s", d.symbols / 1e6 / d.host_decode_s,
         "Msym/s");
  // Computed, not measured: encoded bytes read plus 2 B written per symbol.
  metric("core.host_decode_computed_GBps", d.moved_bytes / 1e9 / d.host_decode_s,
         "GB/s");
  metric("cudasim.served_share", 1.0 - d.rank1_host_s / d.rank1_served_s,
         "fraction");
  metric("cudasim.simulated_decode_GBps", d.quant_code_bytes / 1e9 / d.sim_huffman_s,
         "GB/s");
}

// Phase C: the served configuration under the workload's own closed-loop
// load, alternating telemetry off and on.
void LayerRun::load_burst() {
  ServedStack stack(fx_, client_count(fx_.workload), served_config());
  std::vector<ClientRequests> streams;
  for (std::size_t c = 0; c < client_count(fx_.workload); ++c) {
    streams.emplace_back(fx_, c);
  }
  auto run_phase = [&](double s) {
    const LoadResult l = drive(stack, fx_, streams, s);
    count(l.attempted, l.failed, "served request under load");
    return static_cast<double>(l.latency_ms.size()) / l.elapsed_s;
  };
  const double phase = std::clamp(seconds_ / 8.0, 0.5, 2.0);
  run_phase(phase);  // warm-up
  obs::registry().reset();
  std::vector<double> off, on;
  for (int i = 0; i < 4; ++i) {
    obs::set_enabled(i % 2 == 1);
    (i % 2 ? on : off).push_back(run_phase(phase));
  }
  obs::set_enabled(false);

  const service::RequestClass cls =
      fx_.workload == Workload::BulkDecode     ? service::RequestClass::BatchDecompress
      : fx_.workload == Workload::RandomAccess ? service::RequestClass::RandomAccessChunk
                                               : service::RequestClass::Compress;
  const obs::Snapshot snap = obs::registry().snapshot();
  const obs::HistogramSnap* wait = snap.histogram(
      std::string("service.") + service::request_class_name(cls) + ".queue_wait_ns");
  const service::ServiceStats ss = stack.service.stats();
  std::uint64_t retries = replay_retries_;
  for (const auto& c : stack.clients) {
    const net::ClientStats cs = c->stats();
    retries += cs.retries + cs.reconnects + cs.errors_received;
  }

  metric("net.retries", static_cast<double>(retries), "count");
  metric("service.queue_wait_ms.p50",
         wait != nullptr ? static_cast<double>(wait->p50_ns) * 1e-6 : 0.0, "ms");
  metric("service.queue_wait_ms.p99",
         wait != nullptr ? static_cast<double>(wait->p99_ns) * 1e-6 : 0.0, "ms");
  metric("service.refused_fraction",
         static_cast<double>(ss.rejected() + ss.shed + ss.expired) /
             static_cast<double>(std::max<std::uint64_t>(1, ss.accepted)),
         "fraction");
  metric("obs.telemetry_overhead_fraction", 1.0 - median(on) / median(off),
         "fraction");
  std::printf("  load burst: %.1f req/s telemetry off, %.1f req/s on; %s queue wait n=%llu\n",
              median(off), median(on), service::request_class_name(cls),
              static_cast<unsigned long long>(wait != nullptr ? wait->count : 0));
}

RunResult LayerRun::run(const std::string& trace_path) {
  replay_requests();
  layer_passes();
  load_burst();

  std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
  out << rec_.chrome_trace_json();
  out.close();
  if (!out) throw std::runtime_error("cannot write trace " + trace_path);
  std::printf("  trace: %zu spans -> %s\n", rec_.spans().size(), trace_path.c_str());
  return std::move(result_);
}

}  // namespace

RunResult run_layers(Workload w, std::uint64_t seed, double seconds,
                     const std::string& trace_path) {
  obs::set_enabled(false);
  std::printf("workload %s  seed %llu  traced\n", workload_name(w),
              static_cast<unsigned long long>(seed));
  LayerRun run(w, seed, seconds);
  return run.run(trace_path);
}

}  // namespace ledger
