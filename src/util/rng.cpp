#include "util/rng.h"

#include <cmath>
#include <utility>

namespace bp::util {

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire's nearly-divisionless bounded sampling with rejection to keep
  // the distribution exactly uniform.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(r) * static_cast<unsigned __int128>(n);
    const auto low = static_cast<std::uint64_t>(m);
    if (low >= threshold) return static_cast<std::uint64_t>(m >> 64);
  }
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() noexcept {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::exponential(double lambda) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::size_t Rng::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return weights.size();
  return weighted_bucket(weights, uniform() * total);
}

std::size_t Rng::weighted(std::span<const double> weights,
                          std::span<const double> prefix) noexcept {
  const double total = prefix.empty() ? 0.0 : prefix.back();
  if (total <= 0.0) return weights.size();
  return weighted_bucket(weights, prefix, uniform() * total);
}

std::size_t weighted_bucket(std::span<const double> weights,
                            double target) noexcept {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // numeric slop lands on the last bucket
}

std::vector<double> weighted_prefix_sums(std::span<const double> weights) {
  std::vector<double> prefix;
  prefix.reserve(weights.size());
  double total = 0.0;
  for (double w : weights) {
    total += (w > 0.0 ? w : 0.0);
    prefix.push_back(total);
  }
  return prefix;
}

std::size_t weighted_bucket(std::span<const double> weights,
                            std::span<const double> prefix,
                            double target) noexcept {
  // Each step of the scan and of the running sum errs by at most 2^-53 of
  // a value no larger than the total, so after n steps the two differ
  // from exact arithmetic by at most n 2^-53 total each.  The margin
  // doubles that sum again so its own rounding cannot matter.
  const std::size_t n = prefix.size();
  const double margin =
      4.0 * static_cast<double>(n + 1) * 0x1.0p-53 * prefix.back();
  const std::size_t i = static_cast<std::size_t>(
      std::upper_bound(prefix.begin(), prefix.end(), target) - prefix.begin());
  const double low = i == 0 ? 0.0 : prefix[i - 1];
  if (i < n && target - low > margin && prefix[i] - target > margin) {
    return i;
  }
  return weighted_bucket(weights, target);
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n,
                                             std::size_t k) noexcept {
  if (k > n) k = n;
  // Partial Fisher-Yates over the virtual array idx[p] = p: step i swaps
  // idx[i] with idx[j], j drawn from [i, n).  Only positions a swap has
  // touched differ from identity, and at most k of them, so they live in
  // an open-addressed table of (position, value) pairs instead of an
  // n-entry vector.  Draws and output equal the dense shuffle's.
  std::vector<std::size_t> out(k);
  if (k == 0) return out;
  constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  std::size_t capacity = 4;
  while (capacity < 2 * k) capacity *= 2;
  const std::size_t mask = capacity - 1;
  std::vector<std::pair<std::size_t, std::size_t>> moved(
      capacity, {kEmpty, 0});
  const auto slot = [&](std::size_t position) -> auto& {
    std::size_t h = static_cast<std::size_t>(mix64(position)) & mask;
    while (moved[h].first != kEmpty && moved[h].first != position) {
      h = (h + 1) & mask;
    }
    return moved[h];
  };
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(n - i));
    // Position i is never read again after this step, so only j's new
    // value is written back.
    auto& at_i = slot(i);
    const std::size_t value_i = at_i.first == kEmpty ? i : at_i.second;
    auto& at_j = slot(j);
    out[i] = at_j.first == kEmpty ? j : at_j.second;
    at_j = {j, value_i};
  }
  return out;
}

}  // namespace bp::util
