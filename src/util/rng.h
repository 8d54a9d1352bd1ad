// Deterministic pseudo-random number generation for Browser Polygraph.
//
// Every stochastic component in this repository (traffic synthesis, fraud
// browser profile creation, k-means++ seeding, isolation-forest splits)
// draws from one of these generators so that experiments are reproducible
// bit-for-bit from a single seed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace bp::util {

// SplitMix64 — used for seeding and for cheap stateless hashing.
// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stateless 64-bit mix of a single value (one SplitMix64 round).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

// FNV-1a hash of a byte string; used to derive per-entity sub-seeds from
// stable names (browser names, feature names) so adding entities does not
// perturb the random streams of existing ones.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// xoshiro256** 1.0 — the repository-wide PRNG.  Satisfies (a relaxed
// subset of) UniformRandomBitGenerator so it can be handed to <random>
// distributions if ever needed, though we provide the distributions we
// use directly to keep results identical across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d2c5680u) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) noexcept;

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  // Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  // Standard normal via Box-Muller (cached second value).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  // Exponential with rate lambda.
  double exponential(double lambda) noexcept;

  // Sample an index from a discrete distribution given non-negative
  // weights (need not be normalized).  Returns weights.size() only when
  // all weights are zero or the span is empty.
  std::size_t weighted(std::span<const double> weights) noexcept;
  // The same draw, bit for bit, over a fixed table sampled many times:
  // `prefix` holds weighted_prefix_sums(weights), so the bucket is a
  // binary search (weighted_bucket below).
  std::size_t weighted(std::span<const double> weights,
                       std::span<const double> prefix) noexcept;

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  // Sample k distinct indices from [0, n).  k is clamped to n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) noexcept;

  // Derive an independent child generator.  Streams of parent and child
  // do not overlap for any practical draw count.
  Rng fork(std::uint64_t salt) noexcept {
    return Rng{mix64(next() ^ mix64(salt))};
  }

  // Derive the `stream_id`-th independent child stream as a pure
  // function of the current state — unlike fork(), the parent does not
  // advance, so split(0..n-1) yields the same n streams no matter which
  // order (or on which thread) they are materialized.  This is what the
  // parallel training paths use: one pre-split stream per k-means
  // restart, per isolation-forest tree, and per traffic-synthesis
  // shard, making results independent of the thread count.
  Rng split(std::uint64_t stream_id) const noexcept {
    return Rng{split_seed(mix64(state_digest()), stream_id)};
  }

 private:
  friend class IdSampler;
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_digest() const noexcept {
    return state_[0] ^ rotl(state_[1], 17) ^ rotl(state_[2], 29) ^
           rotl(state_[3], 43);
  }

  static constexpr std::uint64_t split_seed(std::uint64_t mixed_digest,
                                            std::uint64_t stream_id) noexcept {
    return mix64(mixed_digest ^ mix64(stream_id + 0x9e3779b97f4a7c15ULL));
  }

  std::uint64_t state_[4] = {};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// The bucket Rng::weighted returns for a draw of `target` (uniform() *
// total): the first i with target < w_i after subtracting the earlier
// positive weights in order, the last bucket on rounding slop.
std::size_t weighted_bucket(std::span<const double> weights,
                            double target) noexcept;

// Running sums of the positive weights in order: prefix[i] is the sum
// of weights [0, i], so prefix.back() is Rng::weighted's total.
std::vector<double> weighted_prefix_sums(std::span<const double> weights);

// The same bucket as weighted_bucket(weights, target), found by binary
// search over `prefix` (weighted_prefix_sums(weights), non-empty).  The
// subtraction scan and the prefix sums each round once per step, so
// they can disagree only for a target within 2 n 2^-53 total of a
// bucket edge; such a target takes the scan instead.
std::size_t weighted_bucket(std::span<const double> weights,
                            std::span<const double> prefix,
                            double target) noexcept;

// Deterministic per-id Bernoulli(rate) decision, pure in (seed, id):
// keep(id) is `Rng(seed).split(id).uniform() < rate` bit for bit, with
// the seed's digest folded once and the child's first draw (its second
// SplitMix64 word, scrambled) in closed form: three mixes per decision.
// For an integer k, k * 2^-53 < rate exactly when k < ceil(rate * 2^53).
class IdSampler {
 public:
  IdSampler(std::uint64_t seed, double rate) noexcept
      : mixed_digest_(mix64(Rng(seed).state_digest())),
        threshold_(rate > 0.0 ? static_cast<std::uint64_t>(
                                    std::ceil(std::min(rate, 1.0) * 0x1.0p53))
                              : 0) {}

  bool keep(std::uint64_t id) const noexcept {
    const std::uint64_t word1 =
        mix64(Rng::split_seed(mixed_digest_, id) + 0x9e3779b97f4a7c15ULL);
    return ((Rng::rotl(word1 * 5, 7) * 9) >> 11) < threshold_;
  }

 private:
  std::uint64_t mixed_digest_;
  std::uint64_t threshold_;
};

}  // namespace bp::util
