// The serving harness's pure functions (bench/serving_harness.h): the
// committed-work rule every serving bench counts completions by, and the
// bucketing and recovery-window analysis behind every directed-kill verdict.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serving_harness.h"
#include "sim/random.h"

namespace {

using mk::sim::Cycles;
namespace bench = mk::bench;

constexpr Cycles kB = 500'000;  // bucket width

std::string Response(const std::string& status, const std::string& headers,
                     const std::string& body) {
  return "HTTP/1.0 " + status + "\r\n" + headers + "\r\n" + body;
}

TEST(FullOkResponse, FullTwoHundredPasses) {
  const std::string resp = Response("200 OK", "Content-Length: 5\r\n", "hello");
  EXPECT_TRUE(bench::FullOkResponse(resp));
  EXPECT_EQ(bench::ResponseBody(resp), "hello");
}

TEST(FullOkResponse, BodyOneByteShortFails) {
  EXPECT_FALSE(
      bench::FullOkResponse(Response("200 OK", "Content-Length: 5\r\n", "hell")));
}

TEST(FullOkResponse, ServiceUnavailableFails) {
  EXPECT_FALSE(bench::FullOkResponse(
      Response("503 Service Unavailable", "Content-Length: 0\r\n", "")));
}

TEST(FullOkResponse, MissingContentLengthFails) {
  EXPECT_FALSE(bench::FullOkResponse(Response("200 OK", "Server: mk\r\n", "hello")));
}

TEST(FullOkResponse, ContentLengthAfterHeaderEndFails) {
  // The only "Content-Length: " is in the body, past the blank line.
  EXPECT_FALSE(bench::FullOkResponse(
      Response("200 OK", "Server: mk\r\n", "Content-Length: 1")));
}

TEST(FullOkResponse, HeadersThatNeverEndFail) {
  EXPECT_FALSE(bench::FullOkResponse("HTTP/1.0 200 OK\r\nContent-Length: 0\r\n"));
  EXPECT_EQ(bench::ResponseBody("HTTP/1.0 200 OK\r\n"), "");
}

TEST(Bucketize, DropsCompletionsOutsideTheWindow) {
  const std::vector<Cycles> completions = {0,          kB - 1,     kB,
                                           4 * kB - 1, 4 * kB,     10 * kB};
  const std::vector<int> buckets = bench::Bucketize(completions, 4 * kB, kB);
  EXPECT_EQ(buckets, (std::vector<int>{2, 1, 0, 1}));
}

TEST(AnalyzeRecovery, RecoversAtTheFirstSustainedBucket) {
  // Warm-up, three pre-kill buckets of 10, the kill at bucket 4, a dip, and a
  // truncated final bucket.
  const std::vector<int> buckets = {1, 10, 10, 10, 2, 4, 9, 10, 10, 3};
  const bench::Recovery r = bench::AnalyzeRecovery(buckets, 4 * kB, kB, 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.prekill, 10.0);
  EXPECT_DOUBLE_EQ(r.threshold, 8.75);
  ASSERT_TRUE(r.recovered);
  // Bucket 6 is the first from which the rest sustains >= 8.75 with no hole;
  // the window runs from the kill to that bucket's end.
  EXPECT_EQ(r.window, 7 * kB - 4 * kB);
}

TEST(AnalyzeRecovery, ThresholdIsTheGivenFractionOfThePreKillMean) {
  const std::vector<int> buckets = {1, 8, 8, 8, 8, 0, 4, 4, 4, 4};
  const bench::Recovery r = bench::AnalyzeRecovery(buckets, 5 * kB, kB, 0.5);
  EXPECT_DOUBLE_EQ(r.threshold, 4.0);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.window, 7 * kB - 5 * kB);
}

TEST(AnalyzeRecovery, HoleBelowHalfThePreKillMeanBlocksRecovery) {
  // From bucket 5 the mean is 8.8 >= 8.75, but bucket 7 (4 < 10/2) is an
  // outage, so recovery starts only after it.
  const std::vector<int> buckets = {1, 10, 10, 10, 2, 10, 10, 4, 10, 10, 10};
  const bench::Recovery r = bench::AnalyzeRecovery(buckets, 4 * kB, kB, 7.0 / 8.0);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.window, 9 * kB - 4 * kB);

  // A hole in the last counted bucket leaves no sustained stretch at all.
  const std::vector<int> tail_hole = {1, 10, 10, 10, 2, 10, 10, 4, 10};
  EXPECT_FALSE(bench::AnalyzeRecovery(tail_hole, 4 * kB, kB, 7.0 / 8.0).recovered);
}

TEST(AnalyzeRecovery, KillTooEarlyOrTooLateIsNotRecovered) {
  const std::vector<int> buckets = {10, 10, 10, 10, 10, 10, 10, 10, 10, 10};
  // Below bucket 2 there is no full pre-kill bucket after the warm-up, so
  // there is no pre-kill rate either.
  EXPECT_FALSE(bench::AnalyzeRecovery(buckets, 0, kB, 7.0 / 8.0).recovered);
  const bench::Recovery early = bench::AnalyzeRecovery(buckets, kB, kB, 7.0 / 8.0);
  EXPECT_FALSE(early.recovered);
  EXPECT_EQ(early.prekill, 0.0);
  EXPECT_EQ(early.threshold, 0.0);
  EXPECT_TRUE(bench::AnalyzeRecovery(buckets, 2 * kB, kB, 7.0 / 8.0).recovered);
  // At or after the last (truncated) bucket nothing follows the kill, and
  // no target is reported.
  const bench::Recovery late = bench::AnalyzeRecovery(buckets, 9 * kB, kB, 7.0 / 8.0);
  EXPECT_FALSE(late.recovered);
  EXPECT_EQ(late.prekill, 0.0);
  EXPECT_FALSE(bench::AnalyzeRecovery(buckets, 12 * kB, kB, 7.0 / 8.0).recovered);
  EXPECT_FALSE(bench::AnalyzeRecovery({}, 4 * kB, kB, 7.0 / 8.0).recovered);
}

TEST(AnalyzeRecovery, TruncatedFinalBucketIsExcluded) {
  // The final bucket is cut short by the end of the run; counted, its 0
  // would be a hole under every candidate and recovery would never show.
  const std::vector<int> buckets = {1, 10, 10, 10, 2, 10, 10, 10, 0};
  const bench::Recovery r = bench::AnalyzeRecovery(buckets, 4 * kB, kB, 7.0 / 8.0);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.window, 6 * kB - 4 * kB);
}

TEST(PickOther, UniformOverEveryValueButTheExcludedOne) {
  mk::sim::Rng rng(7);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 3000; ++i) {
    ++hits[static_cast<std::size_t>(bench::PickOther(rng, 4, 2))];
  }
  EXPECT_EQ(hits[2], 0);
  for (int v : {0, 1, 3}) {
    EXPECT_GT(hits[static_cast<std::size_t>(v)], 800) << v;
  }
}

TEST(CounterList, FormatsNameValuePairs) {
  EXPECT_EQ(bench::CounterList({{"rx", 12}, {"drops", 0}}), " rx=12 drops=0");
}

}  // namespace
