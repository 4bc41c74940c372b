// Log2-bucketed latency histogram, shared by serve::Service (recorded from
// every worker thread) and net::Client.
//
// Bucket 0 holds samples <= 1; bucket i >= 1 holds (2^(i-1), 2^i]; the
// last bucket also takes everything above its range. A percentile reports
// the upper bound of the bucket holding it, so it is exact to within 2×
// and an exact power of two reports itself (2 µs reads 2, 1025 µs reads
// 2048).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace llmp::support {

class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  static constexpr std::size_t bucket_of(std::uint64_t v) {
    if (v <= 1) return 0;
    const auto b = static_cast<std::size_t>(std::bit_width(v - 1));
    return b < kBuckets ? b : kBuckets - 1;
  }
  static constexpr std::uint64_t upper_bound(std::size_t bucket) {
    return std::uint64_t{1} << bucket;
  }

  /// Count one sample. A relaxed atomic increment: safe from any thread.
  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  /// The q-quantile (q in [0, 1]): the upper bound of the bucket holding
  /// the sample of rank floor(q·(total−1)) + 1; 0 when empty. Reads one
  /// relaxed snapshot of the buckets.
  std::uint64_t percentile(double q) const {
    std::array<std::uint64_t, kBuckets> h{};
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      h[i] = buckets_[i].load(std::memory_order_relaxed);
      total += h[i];
    }
    if (total == 0) return 0;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += h[i];
      if (seen >= rank) return upper_bound(i);
    }
    return upper_bound(kBuckets - 1);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

}  // namespace llmp::support
