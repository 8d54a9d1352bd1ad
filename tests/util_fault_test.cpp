// Tests for the deterministic fault-injection registry (util/fault.h):
// per-seed reproducibility (the property every chaos test leans on),
// spec parsing, and thread-safety of concurrent evaluations.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/fault.h"

namespace bp::util {
namespace {

// The registry is process-global; every test starts and ends clean.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::instance().disarm_all(); }
  void TearDown() override { FaultRegistry::instance().disarm_all(); }
};

TEST_F(FaultTest, UnarmedPointNeverFires) {
  auto& registry = FaultRegistry::instance();
  EXPECT_FALSE(registry.any_armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FAULT_POINT("nothing.armed"));
  }
  EXPECT_EQ(registry.evaluations("nothing.armed"), 0u);
}

TEST_F(FaultTest, ProbabilityZeroAndOneAreExact) {
  auto& registry = FaultRegistry::instance();
  registry.arm("never", 0.0, 1);
  registry.arm("always", 1.0, 1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(registry.should_fire("never"));
    EXPECT_TRUE(registry.should_fire("always"));
  }
  EXPECT_EQ(registry.fires("never"), 0u);
  EXPECT_EQ(registry.fires("always"), 200u);
  EXPECT_EQ(registry.evaluations("never"), 200u);
}

TEST_F(FaultTest, SameSeedReplaysSameDecisionsAndTrace) {
  auto& registry = FaultRegistry::instance();
  registry.arm("replay", 0.5, 42);

  std::vector<bool> first;
  for (int i = 0; i < 256; ++i) first.push_back(registry.should_fire("replay"));
  const auto first_trace = registry.trace();

  registry.reset_counters();
  std::vector<bool> second;
  for (int i = 0; i < 256; ++i) {
    second.push_back(registry.should_fire("replay"));
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_trace, registry.trace());

  // Roughly half fire — sanity that the probability is actually applied.
  const auto fired = registry.fires("replay");
  EXPECT_GT(fired, 64u);
  EXPECT_LT(fired, 192u);
}

TEST_F(FaultTest, DifferentSeedsProduceDifferentPatterns) {
  auto& registry = FaultRegistry::instance();
  registry.arm("a", 0.5, 1);
  registry.arm("b", 0.5, 2);
  std::vector<bool> a, b;
  for (int i = 0; i < 256; ++i) {
    a.push_back(registry.should_fire("a"));
    b.push_back(registry.should_fire("b"));
  }
  EXPECT_NE(a, b);
}

TEST_F(FaultTest, ReArmResetsEvaluationIndex) {
  auto& registry = FaultRegistry::instance();
  registry.arm("rearm", 0.5, 7);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(registry.should_fire("rearm"));
  registry.arm("rearm", 0.5, 7);  // same seed, index back to 0
  std::vector<bool> second;
  for (int i = 0; i < 64; ++i) second.push_back(registry.should_fire("rearm"));
  EXPECT_EQ(first, second);
}

TEST_F(FaultTest, SpecParsing) {
  auto& registry = FaultRegistry::instance();
  EXPECT_TRUE(registry.arm_from_spec(
      "model_io.write:0.25:7, engine.stall:0.5:11 ,bare_point"));
  EXPECT_TRUE(registry.armed("model_io.write"));
  EXPECT_TRUE(registry.armed("engine.stall"));
  EXPECT_TRUE(registry.armed("bare_point"));
  // A bare name arms at probability 1.
  EXPECT_TRUE(registry.should_fire("bare_point"));

  EXPECT_FALSE(registry.arm_from_spec("bad:prob:notanumber"));
  EXPECT_FALSE(registry.arm_from_spec("bad:2.0"));  // probability > 1
  EXPECT_FALSE(registry.arm_from_spec(":0.5"));     // empty name
  EXPECT_FALSE(registry.arm_from_spec("a:1:2:3"));  // too many fields
}

TEST_F(FaultTest, DisarmRestoresZeroCostPath) {
  auto& registry = FaultRegistry::instance();
  registry.arm("x", 1.0, 0);
  EXPECT_TRUE(registry.any_armed());
  registry.disarm("x");
  EXPECT_FALSE(registry.any_armed());
  EXPECT_FALSE(FAULT_POINT("x"));
}

TEST_F(FaultTest, ConcurrentEvaluationFiresSameTotalAsSequential) {
  auto& registry = FaultRegistry::instance();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1'000;

  registry.arm("mt", 0.3, 99);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    registry.should_fire("mt");
  }
  const std::uint64_t sequential_fires = registry.fires("mt");

  registry.arm("mt", 0.3, 99);  // reset index
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) registry.should_fire("mt");
    });
  }
  for (auto& t : threads) t.join();

  // Decisions are a pure function of the evaluation index, so the fire
  // *count* over a fixed number of evaluations is interleaving-proof.
  EXPECT_EQ(registry.evaluations("mt"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(registry.fires("mt"), sequential_fires);
}

}  // namespace
}  // namespace bp::util
