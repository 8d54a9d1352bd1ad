// The paired statistic every overhead gate in the suite judges by.
//
// A single best-of-N comparison of short runs reads their noise
// (mostly which arm ran first and what the scheduler did meanwhile),
// so an overhead gate is a paired statistic instead: interleaved
// baseline/instrumented runs whose first arm alternates, one run-time
// ratio per pair, and a verdict on the median of those ratios.  It
// trips only when the median breaches the bound AND a 95% bootstrap
// interval of the median excludes no overhead at all.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace bp {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;  // timings mean nothing here
#else
inline constexpr bool kSanitized = false;
#endif

struct PairedGate {
  double median = 0.0;  // median per-pair instrumented/baseline ratio
  double lo = 0.0;      // 95% bootstrap interval of that median
  double hi = 0.0;
  bool trips = false;
};

inline double median_of(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  return (v[mid] + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

inline PairedGate paired_ratio_gate(const std::vector<double>& ratios,
                                    double bound, std::uint64_t seed) {
  constexpr std::size_t kResamples = 2'000;
  PairedGate gate;
  gate.median = median_of(ratios);
  util::Rng rng(seed);
  std::vector<double> medians(kResamples);
  std::vector<double> resample(ratios.size());
  for (double& median : medians) {
    for (double& x : resample) x = ratios[rng.below(ratios.size())];
    median = median_of(resample);
  }
  std::sort(medians.begin(), medians.end());
  gate.lo = medians[kResamples / 40];
  gate.hi = medians[kResamples - 1 - kResamples / 40];
  gate.trips = gate.median - 1.0 >= bound && gate.lo > 1.0;
  return gate;
}

// `n` seeded ratios around `mean` with standard deviation `spread`.
inline std::vector<double> synthetic_ratios(double mean, double spread,
                                            std::size_t n,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> ratios(n);
  for (double& r : ratios) r = rng.normal(mean, spread);
  return ratios;
}

}  // namespace bp
