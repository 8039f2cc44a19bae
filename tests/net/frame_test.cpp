// Frame codec coverage: header round trips for every frame type, the strict
// parser's per-field reject matrix, body serializers (open-client, error,
// compress job, decompress result, floats, dims), and the pinned two-way
// error taxonomy mapping — every ServiceError subclass survives the wire
// with its payload (ServiceOverloaded keeps retry_after_ns) and every wire
// code lands on the documented numeric value.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pipeline/archive_index.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"

namespace ohd::net {
namespace {

std::vector<std::uint8_t> some_payload(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7);
  return v;
}

FrameHeader request_header(std::uint64_t id = 42) {
  FrameHeader h;
  h.type = FrameType::Request;
  h.op = RequestOp::Compress;
  h.priority = service::Priority::Interactive;
  h.request_id = id;
  h.deadline_ns = 5'000'000;
  return h;
}

// ---- header round trips ---------------------------------------------------

TEST(Frame, RequestRoundTrip) {
  const auto payload = some_payload(100);
  const auto bytes = encode_frame(request_header(), payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
  const Frame f = parse_frame(bytes);
  EXPECT_EQ(f.header.type, FrameType::Request);
  EXPECT_EQ(f.header.op, RequestOp::Compress);
  EXPECT_EQ(f.header.priority, service::Priority::Interactive);
  EXPECT_EQ(f.header.request_id, 42u);
  EXPECT_EQ(f.header.deadline_ns, 5'000'000u);
  EXPECT_EQ(f.payload, payload);
}

TEST(Frame, ResponseEchoesOpAndPinsRequestFields) {
  FrameHeader h;
  h.type = FrameType::Response;
  h.op = RequestOp::Chunk;
  h.request_id = 7;
  // Leftover request-only fields must be pinned to zero by encode_frame, so
  // a default-constructed header never produces an unparseable frame.
  h.priority = service::Priority::Batch;
  h.deadline_ns = 123;
  const Frame f = parse_frame(encode_frame(h, some_payload(4)));
  EXPECT_EQ(f.header.type, FrameType::Response);
  EXPECT_EQ(f.header.op, RequestOp::Chunk);
  EXPECT_EQ(f.header.deadline_ns, 0u);
  EXPECT_EQ(static_cast<std::uint8_t>(f.header.priority), 0);
}

TEST(Frame, BodylessTypesRoundTrip) {
  for (FrameType t : {FrameType::Cancel, FrameType::Ping, FrameType::Pong}) {
    FrameHeader h;
    h.type = t;
    h.request_id = t == FrameType::Cancel ? 9u : 0u;
    const Frame f = parse_frame(encode_frame(h, {}));
    EXPECT_EQ(f.header.type, t);
    EXPECT_TRUE(f.payload.empty());
  }
}

TEST(Frame, ErrorFrameAllowsIdZero) {
  FrameHeader h;
  h.type = FrameType::Error;
  h.request_id = 0;
  util::ByteWriter w;
  write_error(w, {WireErrorCode::BadRequest, 0, "nope"});
  const Frame f = parse_frame(encode_frame(h, w.bytes()));
  EXPECT_EQ(f.header.type, FrameType::Error);
  util::ByteReader r(f.payload);
  EXPECT_EQ(read_error(r).message, "nope");
}

TEST(Frame, HeaderThenPayloadIsTheFrame) {
  FrameHeader response;
  response.type = FrameType::Response;
  response.op = RequestOp::Decompress;
  response.request_id = 11;
  for (const FrameHeader& h : {request_header(), response}) {
    for (const std::size_t n : {0u, 1u, 4096u}) {
      const auto payload = some_payload(n);
      const auto head = encode_frame_header(h, payload);
      std::vector<std::uint8_t> streamed(head.begin(), head.end());
      streamed.insert(streamed.end(), payload.begin(), payload.end());
      EXPECT_EQ(streamed, encode_frame(h, payload)) << "payload " << n;
    }
  }
}

// ---- strict parser reject matrix ------------------------------------------

TEST(Frame, RejectsTruncatedHeader) {
  const auto bytes = encode_frame(request_header(), {});
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_THROW(parse_frame_header(std::span(bytes).first(n)), FrameError);
  }
}

TEST(Frame, RejectsBadMagic) {
  auto bytes = encode_frame(request_header(), {});
  bytes[0] = 'X';
  EXPECT_THROW(parse_frame_header(bytes), FrameError);
}

/// Re-seals the header CRC after a deliberate field patch, so the parser is
/// forced to judge the FIELD (not the checksum).
void reseal_header(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t crc =
      util::crc32(std::span<const std::uint8_t>(bytes).first(
          kFrameHeaderBytes - 4));
  std::memcpy(bytes.data() + kFrameHeaderBytes - 4, &crc, 4);
}

TEST(Frame, RejectsBadVersion) {
  auto bytes = encode_frame(request_header(), {});
  bytes[4] = kWireVersion + 1;
  reseal_header(bytes);
  try {
    parse_frame_header(bytes);
    FAIL() << "accepted a bad version";
  } catch (const FrameError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Frame, RejectsUnknownTypeOpPriority) {
  auto patch = [](std::size_t at, std::uint8_t value) {
    auto bytes = encode_frame(request_header(), {});
    bytes[at] = value;
    reseal_header(bytes);
    return bytes;
  };
  EXPECT_THROW(parse_frame_header(patch(5, kMaxFrameType + 1)), FrameError);
  EXPECT_THROW(parse_frame_header(patch(6, kMaxRequestOp + 1)), FrameError);
  EXPECT_THROW(parse_frame_header(patch(7, 3)), FrameError);  // priority
}

TEST(Frame, RejectsRequestIdZeroWhereRequired) {
  for (FrameType t :
       {FrameType::Request, FrameType::Response, FrameType::Cancel}) {
    FrameHeader h;
    h.type = t;
    h.request_id = 0;
    const auto bytes = encode_frame(h, {});
    EXPECT_THROW(parse_frame_header(bytes), FrameError);
  }
}

TEST(Frame, RejectsPayloadOnBodylessTypes) {
  FrameHeader h;
  h.type = FrameType::Ping;
  const auto bytes = encode_frame(h, some_payload(3));
  EXPECT_THROW(parse_frame_header(bytes), FrameError);
}

TEST(Frame, RejectsOversizedPayloadBeforeAllocation) {
  const auto payload = some_payload(64);
  const auto bytes = encode_frame(request_header(), payload);
  EXPECT_THROW(parse_frame_header(bytes, /*max_payload=*/63), FrameError);
  EXPECT_NO_THROW(parse_frame_header(bytes, 64));
}

TEST(Frame, RejectsHeaderAndPayloadCorruption) {
  const auto payload = some_payload(32);
  const auto bytes = encode_frame(request_header(), payload);
  {
    auto bad = bytes;
    bad[10] ^= 1;  // inside the header CRC span
    EXPECT_THROW(parse_frame(bad), FrameError);
  }
  {
    auto bad = bytes;
    bad[kFrameHeaderBytes + 5] ^= 0x80;  // payload bit
    EXPECT_THROW(parse_frame(bad), FrameError);
  }
}

TEST(Frame, RejectsTrailingBytesAndShortPayload) {
  const auto payload = some_payload(16);
  const auto bytes = encode_frame(request_header(), payload);
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_THROW(parse_frame(longer), FrameError);
  auto shorter = bytes;
  shorter.pop_back();
  EXPECT_THROW(parse_frame(shorter), FrameError);
}

// ---- bodies ---------------------------------------------------------------

TEST(FrameBody, OpenClientRoundTrip) {
  OpenClientBody body;
  body.rel_error_bound = 5e-4;
  body.radius = 128;
  body.chunk_elems = 4096;
  util::ByteWriter w;
  write_open_client(w, body);
  util::ByteReader r(w.bytes());
  const OpenClientBody back = read_open_client(r);
  expect_exhausted(r);
  EXPECT_EQ(back.rel_error_bound, 5e-4);
  EXPECT_EQ(back.radius, 128u);
  EXPECT_EQ(back.chunk_elems, 4096u);
}

TEST(FrameBody, CompressJobRoundTrip) {
  service::CompressJob job;
  job.fields.push_back(
      {"a", {1.f, 2.f, 3.f, 4.f, 5.f, 6.f}, sz::Dims::d2(2, 3)});
  job.fields.push_back({"b", {0.5f, -0.5f}, sz::Dims::d1(2)});
  util::ByteWriter w;
  write_compress_job(w, job);
  util::ByteReader r(w.bytes());
  const service::CompressJob back = read_compress_job(r);
  expect_exhausted(r);
  ASSERT_EQ(back.fields.size(), 2u);
  EXPECT_EQ(back.fields[0].name, "a");
  EXPECT_EQ(back.fields[0].data, job.fields[0].data);
  EXPECT_EQ(back.fields[0].dims.rank, 2u);
  EXPECT_EQ(back.fields[1].dims.count(), 2u);
}

TEST(FrameBody, CompressJobRejectsDimsMismatchAndBadRank) {
  service::CompressJob job;
  job.fields.push_back({"a", {1.f, 2.f, 3.f}, sz::Dims::d2(2, 3)});  // 3 != 6
  util::ByteWriter w;
  write_compress_job(w, job);
  util::ByteReader r(w.bytes());
  EXPECT_THROW(read_compress_job(r), std::invalid_argument);

  util::ByteWriter w2;
  w2.u8(0);  // dims with rank 0: rejected up front
  for (int i = 0; i < 3; ++i) w2.u64(0);
  util::ByteReader r2(w2.bytes());
  EXPECT_THROW(read_dims(r2), std::invalid_argument);
}

TEST(FrameBody, DecompressResultRoundTrip) {
  DecompressBody body;
  body.fields.push_back({"alpha", {1.f, 2.f}});
  body.fields.push_back({"beta", {}});
  util::ByteWriter w;
  write_decompress_result(w, body);
  util::ByteReader r(w.bytes());
  const DecompressBody back = read_decompress_result(r);
  expect_exhausted(r);
  ASSERT_EQ(back.fields.size(), 2u);
  EXPECT_EQ(back.fields[0].name, "alpha");
  EXPECT_EQ(back.fields[0].data, (std::vector<float>{1.f, 2.f}));
  EXPECT_TRUE(back.fields[1].data.empty());
}

TEST(FrameBody, TruncatedBodyThrows) {
  util::ByteWriter w;
  const std::vector<float> values{1.f, 2.f, 3.f};
  write_floats(w, values);
  const auto bytes = w.take();
  util::ByteReader r(std::span<const std::uint8_t>(bytes).first(
      bytes.size() - 1));
  EXPECT_THROW(read_floats(r), std::invalid_argument);
}

// ---- error taxonomy <-> wire codes ----------------------------------------

template <typename Fn>
ErrorBody map_exception(Fn&& make) {
  try {
    make();
  } catch (...) {
    return wire_error_from_exception(std::current_exception());
  }
  throw std::logic_error("make() did not throw");
}

TEST(FrameErrors, CodesArePinned) {
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::Busy), 1);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::Overloaded), 2);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::Stopped), 3);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::Cancelled), 4);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::DeadlineExceeded), 5);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::Client), 6);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::BadRequest), 7);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::Archive), 8);
  EXPECT_EQ(static_cast<std::uint16_t>(WireErrorCode::Internal), 9);
}

TEST(FrameErrors, ServiceTaxonomyMapsOntoWireCodes) {
  EXPECT_EQ(map_exception([] { throw service::ServiceBusy("full"); }).code,
            WireErrorCode::Busy);
  const ErrorBody over =
      map_exception([] { throw service::ServiceOverloaded("shed", 12345); });
  EXPECT_EQ(over.code, WireErrorCode::Overloaded);
  EXPECT_EQ(over.retry_after_ns, 12345u);  // the hint survives the mapping
  EXPECT_EQ(map_exception([] { throw service::ServiceStopped("bye"); }).code,
            WireErrorCode::Stopped);
  EXPECT_EQ(map_exception([] { throw service::RequestCancelled("c"); }).code,
            WireErrorCode::Cancelled);
  EXPECT_EQ(map_exception([] { throw service::DeadlineExceeded("d"); }).code,
            WireErrorCode::DeadlineExceeded);
  EXPECT_EQ(map_exception([] { throw service::ClientError("who"); }).code,
            WireErrorCode::Client);
  EXPECT_EQ(map_exception([] { throw FrameError("junk"); }).code,
            WireErrorCode::BadRequest);
  EXPECT_EQ(
      map_exception([] { throw pipeline::ContainerError("bad archive"); })
          .code,
      WireErrorCode::Archive);
  EXPECT_EQ(map_exception([] { throw std::runtime_error("boom"); }).code,
            WireErrorCode::Internal);
}

template <typename E>
void expect_round_trips_as(const ErrorBody& body, const std::string& message) {
  util::ByteWriter w;
  write_error(w, body);
  util::ByteReader r(w.bytes());
  const ErrorBody back = read_error(r);
  expect_exhausted(r);
  EXPECT_EQ(back.code, body.code);
  EXPECT_EQ(back.retry_after_ns, body.retry_after_ns);
  try {
    throw_wire_error(back);
    FAIL() << "throw_wire_error returned";
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos);
  }
}

TEST(FrameErrors, EverySubclassRoundTripsTheWire) {
  expect_round_trips_as<service::ServiceBusy>(
      {WireErrorCode::Busy, 0, "queue full"}, "queue full");
  expect_round_trips_as<service::ServiceStopped>(
      {WireErrorCode::Stopped, 0, "drained"}, "drained");
  expect_round_trips_as<service::RequestCancelled>(
      {WireErrorCode::Cancelled, 0, "gone"}, "gone");
  expect_round_trips_as<service::DeadlineExceeded>(
      {WireErrorCode::DeadlineExceeded, 0, "late"}, "late");
  expect_round_trips_as<service::ClientError>(
      {WireErrorCode::Client, 0, "unknown client"}, "unknown client");
  expect_round_trips_as<RemoteError>({WireErrorCode::BadRequest, 0, "junk"},
                                     "junk");
  expect_round_trips_as<RemoteError>({WireErrorCode::Archive, 0, "corrupt"},
                                     "corrupt");
  expect_round_trips_as<RemoteError>({WireErrorCode::Internal, 0, "boom"},
                                     "boom");

  // Overloaded: the retry-after hint must arrive intact in the REBUILT
  // exception, not just in the decoded body.
  util::ByteWriter w;
  write_error(w, {WireErrorCode::Overloaded, 777, "shed"});
  util::ByteReader r(w.bytes());
  try {
    throw_wire_error(read_error(r));
    FAIL() << "throw_wire_error returned";
  } catch (const service::ServiceOverloaded& e) {
    EXPECT_EQ(e.retry_after_ns(), 777u);
  }
}

TEST(FrameErrors, RemoteErrorKeepsTheCode) {
  try {
    throw_wire_error({WireErrorCode::Archive, 0, "bad footer"});
    FAIL() << "throw_wire_error returned";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), static_cast<std::uint16_t>(WireErrorCode::Archive));
  }
}

}  // namespace
}  // namespace ohd::net
