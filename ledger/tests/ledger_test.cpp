// Unit tests of the ledger's own helpers: the tail-percentile rule, the
// seed derivation, and replayability — the same workload seed must give the
// same inputs, the same request sequences and the same output checksums.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "inputs.hpp"
#include "ledger.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/checksum.hpp"

namespace ledger {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, PicksHighestPercentileWithTenBeyond) {
  const TimingSummary s = summarize(one_to(100));
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 90.0);  // p95 would leave only 5
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
  EXPECT_EQ(s.beyond, 10u);
}

TEST(TailRule, LargeSamplesReachP99) {
  std::vector<double> v = one_to(1000);
  std::shuffle(v.begin(), v.end(), std::mt19937(5));
  const TimingSummary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_EQ(s.beyond, 10u);
}

TEST(TailRule, BoundaryCounts) {
  EXPECT_DOUBLE_EQ(summarize(one_to(20)).tail_percentile, 50.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(24)).tail_percentile, 50.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(25)).tail_percentile, 60.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(39)).tail_percentile, 70.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(40)).tail_percentile, 75.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(50)).tail_percentile, 80.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(999)).tail_percentile, 95.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(1000)).tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(100000)).tail_percentile, 99.0);
  EXPECT_EQ(summarize(one_to(100000)).beyond, 1000u);
}

TEST(TailRule, TooFewSamplesReportsMax) {
  const TimingSummary s = summarize(one_to(19));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 100.0);
  EXPECT_DOUBLE_EQ(s.tail, 19.0);
  EXPECT_EQ(s.beyond, 0u);
  EXPECT_NE(describe(s, "ms").find("n=19"), std::string::npos);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(TailRule, DescribePrintsSampleCount) {
  const std::string d = describe(summarize(one_to(100)), "ms");
  EXPECT_NE(d.find("p90"), std::string::npos);
  EXPECT_NE(d.find("n=100"), std::string::npos);
  EXPECT_NE(d.find("10 beyond"), std::string::npos);
}

TEST(Stats, NearestRankAndMedian) {
  const std::vector<double> v = one_to(10);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 91.0), 10.0);
  EXPECT_EQ(samples_beyond(10, 50.0), 5u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Seeds, SplitMix64MatchesReferenceVector) {
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ULL);
}

TEST(Seeds, DerivedStreamsAreDistinctAndStable) {
  EXPECT_EQ(derive_seed(7, Stream::Client, 0), derive_seed(7, Stream::Client, 0));
  EXPECT_NE(derive_seed(7, Stream::Client, 0), derive_seed(7, Stream::Client, 1));
  EXPECT_NE(derive_seed(7, Stream::Client, 0), derive_seed(7, Stream::Corpus, 0));
  EXPECT_NE(derive_seed(7, Stream::Client, 0), derive_seed(8, Stream::Client, 0));
}

std::uint32_t checksum(std::span<const float> values) {
  return ohd::util::crc32({reinterpret_cast<const std::uint8_t*>(values.data()),
                           values.size_bytes()});
}

std::vector<Request> first_requests(const Fixture& fx, std::size_t client,
                                    std::size_t n) {
  ClientRequests stream(fx, client);
  std::vector<Request> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(stream.next());
  return out;
}

bool same(const Request& a, const Request& b) {
  return a.kind == b.kind && a.field == b.field && a.chunk == b.chunk &&
         a.begin == b.begin && a.end == b.end;
}

std::vector<std::uint32_t> reference_checksums(const Fixture& fx,
                                               const std::vector<Request>& rs) {
  std::vector<std::uint32_t> out;
  for (const Request& r : rs) {
    out.push_back(checksum(expected_slice(r, fx.shape, fx.reference[r.field])));
  }
  return out;
}

TEST(Replay, SameSeedGivesSameRequestsAndOutputs) {
  ohd::pipeline::ThreadPool pool(2);
  const Fixture a = build_fixture(Workload::RandomAccess, 7, pool);
  const Fixture b = build_fixture(Workload::RandomAccess, 7, pool);
  const Fixture c = build_fixture(Workload::RandomAccess, 8, pool);
  EXPECT_EQ(a.archive, b.archive);
  EXPECT_NE(a.archive, c.archive);

  constexpr std::size_t kRequests = 200;
  for (std::size_t client = 0; client < client_count(Workload::RandomAccess);
       ++client) {
    const std::vector<Request> ra = first_requests(a, client, kRequests);
    const std::vector<Request> rb = first_requests(b, client, kRequests);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), same));
    EXPECT_EQ(reference_checksums(a, ra), reference_checksums(b, rb));
    const std::size_t ranges = std::count_if(ra.begin(), ra.end(), [](auto& r) {
      return r.kind == RequestKind::Range;
    });
    EXPECT_GT(ranges, kRequests / 10);
    EXPECT_LT(ranges, kRequests * 3 / 10);
  }
  EXPECT_FALSE(std::equal(
      first_requests(a, 0, kRequests).begin(), first_requests(a, 0, kRequests).end(),
      first_requests(a, 1, kRequests).begin(), same));
  const std::vector<Request> rc = first_requests(c, 0, kRequests);
  EXPECT_FALSE(std::equal(rc.begin(), rc.end(),
                          first_requests(a, 0, kRequests).begin(), same));

  // The served path returns exactly those outputs for seed-7 requests.
  ServedStack stack(a, 1, served_config());
  const std::vector<Request> rs = first_requests(a, 0, 20);
  const std::vector<std::uint32_t> want = reference_checksums(b, rs);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Outcome o =
        execute_wire(*stack.clients[0], stack.handles[0], rs[i], a, {});
    EXPECT_TRUE(o.ok) << "request " << i;
    EXPECT_EQ(o.bytes,
              expected_slice(rs[i], a.shape, a.reference[rs[i].field]).size_bytes());
  }
  EXPECT_EQ(reference_checksums(a, rs), want);
}

TEST(Spans, ChromeTraceIsSortedAndNested) {
  SpanRecorder rec;
  {
    ScopedSpan root(rec, "request", 3);
    ScopedSpan child(rec, "net.wire", 3);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, rec.spans()[0].id);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  const std::string json = rec.chrome_trace_json();
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"req\":3"), std::string::npos);
}

}  // namespace
}  // namespace ledger
