// The one bucket layout every histogram in the process records into:
// obs::Histogram (and so the serving latency and batch-size
// histograms), serve::MetricsSnapshot's folded arrays and the
// contention sites' block-time buckets.
//
// Log-linear over unsigned integer samples:
//   * 0..7 each get an exact bucket;
//   * every power of two from 2^3 to 2^23 is split into 4 equal linear
//     sub-buckets, so no bucket is wider than 25% of its lowest value;
//   * one open-ended bucket holds everything >= 2^24 (~16.8 s in
//     microseconds, ~16.8 ms in nanoseconds).
// 93 contiguous buckets; bucket(v) is O(1).  Standard library only, so
// the leaf bp_prof library can use it without linking bp_obs.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace bp::obs::hist {

inline constexpr std::size_t kExact = 8;       // 0..7, one bucket each
inline constexpr std::size_t kSubBuckets = 4;  // per power of two
inline constexpr unsigned kTopExponent = 24;   // 2^24 starts the open bucket
inline constexpr std::size_t kBuckets =
    kExact + (kTopExponent - 3) * kSubBuckets + 1;

// Index of the bucket holding `v`.
constexpr std::size_t bucket(std::uint64_t v) noexcept {
  if (v < kExact) return static_cast<std::size_t>(v);
  const unsigned exponent = 63u - static_cast<unsigned>(std::countl_zero(v));
  if (exponent >= kTopExponent) return kBuckets - 1;
  const std::size_t sub = static_cast<std::size_t>(v >> (exponent - 2)) & 3u;
  return kExact + (exponent - 3) * kSubBuckets + sub;
}

// Largest value bucket `b` holds (inclusive); UINT64_MAX for the open
// bucket.
constexpr std::uint64_t upper(std::size_t b) noexcept {
  if (b < kExact) return b;
  if (b + 1 >= kBuckets) return std::numeric_limits<std::uint64_t>::max();
  const unsigned exponent = static_cast<unsigned>(3 + (b - kExact) / kSubBuckets);
  const std::uint64_t sub = (b - kExact) % kSubBuckets;
  return (std::uint64_t{1} << exponent) +
         (sub + 1) * (std::uint64_t{1} << (exponent - 2)) - 1;
}

// Smallest value bucket `b` holds.
constexpr std::uint64_t lower(std::size_t b) noexcept {
  return b == 0 ? 0 : upper(b - 1) + 1;
}

// Quantile `q` of the samples counted in `counts`, interpolating
// linearly across a bucket's span (upper(b-1), upper(b)]; the open
// bucket reports its lower edge.  q is clamped to [0, 1]; NaN is
// treated as 0.  Returns 0 when nothing was counted.
inline double quantile(std::span<const std::uint64_t, kBuckets> counts,
                       double q) noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Guard before clamping: std::clamp on NaN would propagate it into
  // the rank arithmetic and return NaN, which every caller would then
  // compare against a budget.
  if (std::isnan(q)) q = 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t next = cumulative + counts[b];
    if (rank <= static_cast<double>(next)) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(upper(b - 1));
      const double hi = b + 1 < kBuckets ? static_cast<double>(upper(b)) : lo;
      const double fraction = (rank - static_cast<double>(cumulative)) /
                              static_cast<double>(counts[b]);
      return lo + (hi - lo) * fraction;
    }
    cumulative = next;
  }
  return static_cast<double>(upper(kBuckets - 2));
}

}  // namespace bp::obs::hist
