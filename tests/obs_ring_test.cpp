// Tests for obs::Ring, the overwrite-oldest buffer behind TraceSink and
// AuditTrail: capacity edge cases, the overwrite report, oldest-first
// order across wraps, newest(), and reuse after clear().
#include <gtest/gtest.h>

#include <vector>

#include "obs/ring.h"

namespace bp::obs {
namespace {

std::vector<int> contents(const Ring<int>& ring) {
  std::vector<int> out;
  ring.for_each([&](int v) { out.push_back(v); });
  return out;
}

TEST(ObsRing, CapacityZeroIsRaisedToOne) {
  const Ring<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_TRUE(ring.empty());
}

TEST(ObsRing, CapacityOneKeepsOnlyTheNewest) {
  Ring<int> ring(1);
  EXPECT_FALSE(ring.push(1));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.newest(), 1);
  for (int v = 2; v <= 5; ++v) {
    EXPECT_TRUE(ring.push(v)) << v;
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring[0], v);
    EXPECT_EQ(ring.newest(), v);
  }
}

TEST(ObsRing, FillsToCapacityWithoutOverwriting) {
  Ring<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int v = 1; v <= 4; ++v) {
    EXPECT_FALSE(ring.push(v)) << v;
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(v));
    EXPECT_EQ(ring.newest(), v);
  }
  EXPECT_EQ(contents(ring), (std::vector<int>{1, 2, 3, 4}));
}

TEST(ObsRing, WrapOverwritesOldestAndReportsIt) {
  Ring<int> ring(4);
  for (int v = 1; v <= 4; ++v) ring.push(v);
  EXPECT_TRUE(ring.push(5));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring[0], 2);
  EXPECT_EQ(ring[3], 5);
  EXPECT_EQ(ring.newest(), 5);
  EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4, 5}));
}

TEST(ObsRing, OldestFirstAfterSeveralWraps) {
  constexpr int kCapacity = 5;
  Ring<int> ring(kCapacity);
  int overwrites = 0;
  // 23 pushes: four full wraps plus three, so the cursor ends mid-ring.
  for (int v = 1; v <= 23; ++v) overwrites += ring.push(v) ? 1 : 0;
  EXPECT_EQ(overwrites, 23 - kCapacity);
  ASSERT_EQ(ring.size(), static_cast<std::size_t>(kCapacity));
  const std::vector<int> want = {19, 20, 21, 22, 23};
  EXPECT_EQ(contents(ring), want);
  for (std::size_t i = 0; i < ring.size(); ++i) EXPECT_EQ(ring[i], want[i]);
  EXPECT_EQ(ring.newest(), 23);
}

TEST(ObsRing, NewestTracksEveryPushAcrossTheSeam) {
  Ring<int> ring(3);
  for (int v = 1; v <= 10; ++v) {
    ring.push(v);
    EXPECT_EQ(ring.newest(), v);
    EXPECT_EQ(ring[ring.size() - 1], v);
  }
}

TEST(ObsRing, ClearThenReuse) {
  Ring<int> ring(3);
  for (int v = 1; v <= 7; ++v) ring.push(v);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_TRUE(contents(ring).empty());

  EXPECT_FALSE(ring.push(100));
  EXPECT_FALSE(ring.push(101));
  EXPECT_EQ(contents(ring), (std::vector<int>{100, 101}));
  EXPECT_FALSE(ring.push(102));
  EXPECT_TRUE(ring.push(103));
  EXPECT_EQ(contents(ring), (std::vector<int>{101, 102, 103}));
  EXPECT_EQ(ring.newest(), 103);
}

}  // namespace
}  // namespace bp::obs
