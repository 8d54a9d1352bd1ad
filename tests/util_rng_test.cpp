// Tests for the deterministic PRNG substrate (util/rng.h).
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <vector>

namespace bp::util {
namespace {

TEST(SplitMix, IsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(SplitMix, AdvancesState) {
  std::uint64_t s = 42;
  const auto first = splitmix64(s);
  const auto second = splitmix64(s);
  EXPECT_NE(first, second);
}

TEST(Mix64, IsStateless) { EXPECT_EQ(mix64(7), mix64(7)); }

TEST(Mix64, SpreadsNearbyInputs) {
  // Consecutive integers must not map to nearby outputs.
  EXPECT_GT(mix64(1) ^ mix64(2), 1u << 20);
}

TEST(Fnv1a, MatchesKnownVector) {
  // FNV-1a 64-bit of "a" is a published constant.
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
}

TEST(Fnv1a, DiffersByContent) {
  EXPECT_NE(fnv1a("Element"), fnv1a("Document"));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedDifferentStream) {
  Rng a(123);
  Rng b(124);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(9);
  const auto first = a.next();
  a.reseed(9);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, BelowIsBounded) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowZeroReturnsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(4);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 60'000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(6)];
  for (const auto& [value, count] : counts) {
    EXPECT_NEAR(count, kDraws / 6, kDraws / 6 * 0.1) << "value " << value;
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BetweenDegenerate) {
  Rng rng(5);
  EXPECT_EQ(rng.between(3, 3), 3);
  EXPECT_EQ(rng.between(3, 1), 3);  // inverted range collapses to lo
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(7);
  int hits = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng rng(8);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.03);
}

TEST(Rng, WeightedHonorsZeroWeights) {
  Rng rng(12);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
}

TEST(Rng, WeightedAllZeroReturnsSize) {
  Rng rng(13);
  const double weights[] = {0.0, 0.0};
  EXPECT_EQ(rng.weighted(weights), 2u);
}

TEST(Rng, WeightedEmptyReturnsZeroSize) {
  Rng rng(13);
  EXPECT_EQ(rng.weighted({}), 0u);
}

TEST(Rng, WeightedMatchesRatios) {
  Rng rng(14);
  const double weights[] = {1.0, 3.0};
  int second = 0;
  constexpr int kDraws = 40'000;
  for (int i = 0; i < kDraws; ++i) second += rng.weighted(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(second) / kDraws, 0.75, 0.02);
}

// Weight tables of the shapes the generator samples (exponential decay
// over release age, oldest first), plus zeros, negatives, one dominant
// weight among tiny ones, and seeded random weights.
std::vector<std::vector<double>> weight_tables() {
  std::vector<std::vector<double>> tables;
  for (const double tau : {30.0, 90.0, 365.0}) {
    std::vector<double> decay;
    for (int age = 1500; age >= 0; age -= 23) {
      decay.push_back(std::exp(-age / tau));
    }
    tables.push_back(std::move(decay));
  }
  tables.push_back({0.0, 0.1, 0.2, 0.0, -3.0, 0.3, 0.7, 0.0});
  tables.push_back({1e-300, 1e-17, 1.0, 1e-17, 1e-300, 3e-16});
  tables.push_back({0.0});
  Rng rng(99);
  for (int t = 0; t < 8; ++t) {
    std::vector<double> random(1 + rng.below(200));
    for (double& w : random) w = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 7.0);
    tables.push_back(std::move(random));
  }
  return tables;
}

TEST(RngWeighted, PrefixSearchMatchesTheScanOverAMillionDraws) {
  std::size_t draws = 0;
  std::uint64_t seed = 1;
  for (const std::vector<double>& weights : weight_tables()) {
    const std::vector<double> prefix = weighted_prefix_sums(weights);
    Rng scan(seed);
    Rng search(seed++);
    for (int i = 0; i < 80'000; ++i, ++draws) {
      ASSERT_EQ(search.weighted(weights, prefix), scan.weighted(weights))
          << "table of " << weights.size() << ", draw " << i;
    }
  }
  EXPECT_GE(draws, 1'000'000u);
}

TEST(RngWeighted, TargetsAtBucketEdgesFindTheScansBucket) {
  std::size_t targets = 0;
  for (const std::vector<double>& weights : weight_tables()) {
    const std::vector<double> prefix = weighted_prefix_sums(weights);
    const double total = prefix.back();
    if (total <= 0.0) continue;
    // Every edge as the running sums place it and as the scan's own
    // subtractions place it, each stepped a few ulps either way.
    std::vector<double> edges(prefix.begin(), prefix.end());
    double scanned = total;
    for (std::size_t i = weights.size(); i-- > 0;) {
      scanned -= weights[i] > 0.0 ? weights[i] : 0.0;
      edges.push_back(scanned);
      edges.push_back(total - scanned);
    }
    edges.push_back(0.0);
    for (const double edge : edges) {
      double below = edge;
      double above = edge;
      for (int step = 0; step < 64; ++step) {
        for (const double target : {below, above}) {
          if (target < 0.0 || target >= total) continue;
          ASSERT_EQ(weighted_bucket(weights, prefix, target),
                    weighted_bucket(weights, target))
              << "target " << target << " near edge " << edge;
          ++targets;
        }
        below = std::nextafter(below, -1.0);
        above = std::nextafter(above, 2.0 * total);
      }
    }
  }
  EXPECT_GT(targets, 100'000u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(16);
  const auto idx = rng.sample_indices(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesClampsToPopulation) {
  Rng rng(17);
  EXPECT_EQ(rng.sample_indices(5, 50).size(), 5u);
}

// The sparse partial Fisher-Yates must make the same draws and return
// the same indices as the dense one it replaced: shuffle the first k
// slots of an n-entry identity vector.
std::vector<std::size_t> dense_sample(Rng& rng, std::size_t n, std::size_t k) {
  if (k > n) k = n;
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

TEST(Rng, SampleIndicesMatchesTheDenseShuffle) {
  const std::size_t ns[] = {0, 1, 2, 3, 7, 64, 255, 256, 257, 1000, 30'000};
  const std::size_t ks[] = {0, 1, 2, 5, 100, 256, 999, 1000, 1001, 40'000};
  std::uint64_t seed = 1;
  for (std::size_t n : ns) {
    for (std::size_t k : ks) {
      Rng sparse(seed);
      Rng dense(seed);
      ++seed;
      EXPECT_EQ(sparse.sample_indices(n, k), dense_sample(dense, n, k))
          << "n " << n << " k " << k;
      // Both consumed the same draws.
      EXPECT_EQ(sparse.next(), dense.next()) << "n " << n << " k " << k;
    }
    Rng sparse(seed);
    Rng dense(seed);
    EXPECT_EQ(sparse.sample_indices(n, n), dense_sample(dense, n, n))
        << "k = n = " << n;
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(18);
  Rng child_a = parent.fork(1);
  Rng child_b = parent.fork(1);  // parent state advanced -> different child
  EXPECT_NE(child_a.next(), child_b.next());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng parent(19);
  Rng reference(19);
  (void)parent.split(0);
  (void)parent.split(7);
  // split() is const and pure: the parent stream is untouched.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(parent.next(), reference.next());
}

TEST(Rng, SplitIsDeterministic) {
  const Rng parent(20);
  Rng a = parent.split(3);
  Rng b = parent.split(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsDoNotCollide) {
  // Pre-split streams back the per-restart / per-tree / per-shard RNGs
  // of the parallel training pipeline: distinct stream ids must yield
  // distinct, non-overlapping sequences.  Check the first draws of many
  // streams for collisions, and full prefixes for pairwise equality.
  const Rng parent(21);
  constexpr std::uint64_t kStreams = 4'096;
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t id = 0; id < kStreams; ++id) {
    first_draws.insert(parent.split(id).next());
  }
  EXPECT_EQ(first_draws.size(), kStreams);

  constexpr int kPrefix = 16;
  std::set<std::vector<std::uint64_t>> prefixes;
  for (std::uint64_t id = 0; id < 64; ++id) {
    Rng stream = parent.split(id);
    std::vector<std::uint64_t> prefix;
    for (int i = 0; i < kPrefix; ++i) prefix.push_back(stream.next());
    prefixes.insert(std::move(prefix));
  }
  EXPECT_EQ(prefixes.size(), 64u);
}

TEST(Rng, SplitDependsOnParentState) {
  Rng a(22);
  Rng b(22);
  (void)b.next();  // advance b: same id must now yield a different stream
  EXPECT_NE(a.split(5).next(), b.split(5).next());
}

TEST(Rng, SplitDiffersFromParentStream) {
  const Rng parent(23);
  Rng copy = parent;
  Rng child = parent.split(0);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += copy.next() == child.next() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

// Property sweep: bounds and determinism hold across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, BoundedDrawsAndDeterminism) {
  Rng a(GetParam());
  Rng b(GetParam());
  for (int i = 0; i < 500; ++i) {
    const auto bound = 1 + (i % 97);
    const auto va = a.below(static_cast<std::uint64_t>(bound));
    const auto vb = b.below(static_cast<std::uint64_t>(bound));
    EXPECT_EQ(va, vb);
    EXPECT_LT(va, static_cast<std::uint64_t>(bound));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xDEADBEEFULL,
                                           0xFFFFFFFFFFFFFFFFULL,
                                           20230301ULL, 977ULL, 31337ULL));

}  // namespace
}  // namespace bp::util
