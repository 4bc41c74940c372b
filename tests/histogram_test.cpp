// support::Log2Histogram — the latency histogram serve::Service and
// net::Client share: one bucket rule ((2^(i-1), 2^i], bucket 0 <= 1) and
// one percentile walk, recorded concurrently by the Service's workers.
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/histogram.h"

namespace llmp::support {
namespace {

TEST(Log2Histogram, SingleSampleReportsItsBucketUpperBound) {
  // An exact power of two is the top of its own bucket, not the bottom
  // of the next one.
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1024, 1024},
      {1025, 2048}};
  for (const auto& [us, reported] : cases) {
    Log2Histogram h;
    h.record(us);
    EXPECT_EQ(h.percentile(0.50), reported) << us << " us";
    EXPECT_EQ(h.percentile(0.99), reported) << us << " us";
  }
}

TEST(Log2Histogram, HugeSamplesLandInTheLastBucket) {
  Log2Histogram h;
  h.record(~std::uint64_t{0});
  EXPECT_EQ(Log2Histogram::bucket_of(~std::uint64_t{0}),
            Log2Histogram::kBuckets - 1);
  EXPECT_EQ(h.percentile(0.5),
            Log2Histogram::upper_bound(Log2Histogram::kBuckets - 1));
}

TEST(Log2Histogram, PercentileWalksCumulativeCounts) {
  Log2Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  for (int k = 0; k < 98; ++k) h.record(3);  // bucket (2, 4]
  h.record(100);                             // bucket (64, 128]
  h.record(5000);                            // bucket (4096, 8192]
  EXPECT_EQ(h.percentile(0.50), 4u);
  EXPECT_EQ(h.percentile(0.98), 4u);
  EXPECT_EQ(h.percentile(0.99), 128u);
  EXPECT_EQ(h.percentile(1.00), 8192u);
  h.reset();
  EXPECT_EQ(h.percentile(0.99), 0u);
}

TEST(Log2Histogram, ConcurrentRecordsAreAllCounted) {
  Log2Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int k = 0; k < kPerThread; ++k) h.record(t == 0 ? 1 : 1000);
    });
  for (auto& t : threads) t.join();
  // 10000 of 40000 samples are <= 1 µs, so rank 10000 (q = 0.25) is the
  // last of them only if none of their increments was lost; the rest sit
  // in (512, 1024].
  EXPECT_EQ(h.percentile(0.25), 1u);
  EXPECT_EQ(h.percentile(0.2501), 1024u);
  EXPECT_EQ(h.percentile(1.0), 1024u);
}

}  // namespace
}  // namespace llmp::support
