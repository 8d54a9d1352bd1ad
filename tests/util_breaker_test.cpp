// util::Breaker and util::backoff: the one circuit breaker and the one
// retry backoff that net::ScoreClient and serve::RetrainSupervisor
// share.  Breaker cases pin each state-machine rule; the backoff table
// pins the formula to the two per-class copies it replaced, so both
// callers' schedules stay bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "util/breaker.h"

namespace bp::util {
namespace {

using std::chrono::milliseconds;

// Open a fresh breaker by failing it `threshold` times.
void trip(Breaker& breaker, int threshold) {
  for (int i = 0; i < threshold - 1; ++i) {
    EXPECT_TRUE(breaker.admit());
    EXPECT_FALSE(breaker.on_failure());
    EXPECT_FALSE(breaker.open());
  }
  EXPECT_TRUE(breaker.admit());
  EXPECT_TRUE(breaker.on_failure());  // the closed -> open transition
  EXPECT_TRUE(breaker.open());
}

TEST(UtilBreaker, OpensAtTheThreshold) {
  Breaker breaker(3, 2);
  trip(breaker, 3);
  EXPECT_EQ(breaker.consecutive_failures(), 3);
}

TEST(UtilBreaker, SuccessBelowTheThresholdClearsTheStreak) {
  Breaker breaker(2, 2);
  EXPECT_TRUE(breaker.admit());
  EXPECT_FALSE(breaker.on_failure());
  breaker.on_success();
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.admit());
  EXPECT_FALSE(breaker.on_failure());  // streak restarted at 1
  EXPECT_FALSE(breaker.open());
}

TEST(UtilBreaker, ShortCircuitsExactlyCooldownAdmits) {
  Breaker breaker(1, 3);
  trip(breaker, 1);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(breaker.admit()) << "admit " << i;
  EXPECT_TRUE(breaker.admit());  // cooldown spent: the probe
}

TEST(UtilBreaker, GrantsExactlyOneProbeAtATime) {
  Breaker breaker(1, 1);
  trip(breaker, 1);
  EXPECT_FALSE(breaker.admit());  // cooldown
  EXPECT_TRUE(breaker.admit());   // the probe
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(breaker.admit()) << "second admit while the probe is out";
  }
  EXPECT_TRUE(breaker.open());
}

TEST(UtilBreaker, ProbeSuccessClosesAndClearsTheStreak) {
  Breaker breaker(2, 1);
  trip(breaker, 2);
  EXPECT_FALSE(breaker.admit());
  EXPECT_TRUE(breaker.admit());
  breaker.on_success();
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.admit());
  EXPECT_TRUE(breaker.admit());  // closed: every admit goes out
  EXPECT_FALSE(breaker.on_failure());  // one failure is below threshold 2
}

TEST(UtilBreaker, ProbeFailureReopensWithAFreshCooldown) {
  Breaker breaker(1, 2);
  trip(breaker, 1);
  EXPECT_FALSE(breaker.admit());
  EXPECT_FALSE(breaker.admit());
  EXPECT_TRUE(breaker.admit());        // probe
  EXPECT_FALSE(breaker.on_failure());  // already open: no new transition
  EXPECT_TRUE(breaker.open());
  EXPECT_FALSE(breaker.admit());  // a fresh cooldown of 2
  EXPECT_FALSE(breaker.admit());
  EXPECT_TRUE(breaker.admit());  // the next probe
}

TEST(UtilBreaker, ProbeHandedBackUnusedStaysHalfOpen) {
  Breaker breaker(1, 2);
  trip(breaker, 1);
  EXPECT_FALSE(breaker.admit());
  EXPECT_FALSE(breaker.admit());
  EXPECT_TRUE(breaker.admit());  // probe granted ...
  breaker.return_probe();        // ... and returned unused
  EXPECT_TRUE(breaker.open());
  EXPECT_TRUE(breaker.admit());   // no new cooldown: the probe again
  EXPECT_FALSE(breaker.admit());  // and still only one at a time
}

TEST(UtilBreaker, ReturnProbeIsANoOpWhenClosed) {
  Breaker breaker(1, 1);
  breaker.return_probe();
  EXPECT_FALSE(breaker.open());
  EXPECT_TRUE(breaker.admit());
}

TEST(UtilBreaker, ResetCloses) {
  Breaker breaker(1, 100);
  trip(breaker, 1);
  EXPECT_FALSE(breaker.admit());
  breaker.reset();
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.admit());
  EXPECT_TRUE(breaker.on_failure());  // reopens from closed at threshold 1
}

// The two formulas util::backoff replaced, verbatim in shape.
milliseconds client_formula(milliseconds initial, milliseconds max, int retry,
                            double unit) {
  double base = static_cast<double>(initial.count()) *
                std::pow(2.0, static_cast<double>(retry));
  base = std::min(base, static_cast<double>(max.count()));
  const auto jittered = static_cast<std::int64_t>(base * (0.5 + 0.5 * unit));
  return milliseconds(std::max<std::int64_t>(jittered, 0));
}

milliseconds supervisor_formula(milliseconds initial, milliseconds max,
                                int retry, double unit) {
  double backoff = static_cast<double>(initial.count());
  for (int i = 0; i < retry; ++i) backoff *= 2.0;
  backoff = std::min(backoff, static_cast<double>(max.count()));
  backoff *= 0.5 + 0.5 * unit;
  return milliseconds(static_cast<std::int64_t>(backoff));
}

TEST(UtilBackoff, MatchesBothReplacedFormulas) {
  struct Row {
    std::int64_t initial, max;
    int retry;
    double unit;
  };
  const double kJustBelowOne = 1.0 - 0x1.0p-53;
  const Row rows[] = {
      {10, 500, 0, 0.0},       {10, 500, 0, kJustBelowOne},
      {10, 500, 1, 0.25},      {10, 500, 2, 0.5},
      {10, 500, 5, 0.999},     {10, 500, 6, 0.1},  // 640 -> capped at 500
      {100, 5000, 0, 0.73},    {100, 5000, 3, 0.31},
      {100, 300, 7, 0.9},      {100, 5000, 63, 0.42},
      {100, 5000, 64, 0.42},   {100, 5000, 65, kJustBelowOne},
      {1, 1, 200, 0.5},        {3, 7, 1, 0.333},
      {0, 500, 3, 0.9},        {2, 50, 1100, 0.6},  // 2^1100 overflows
      {5, 50, 3, 0.123456789},
  };
  for (const Row& r : rows) {
    const milliseconds initial(r.initial);
    const milliseconds max(r.max);
    const milliseconds got = backoff(initial, max, r.retry, r.unit);
    EXPECT_EQ(got, client_formula(initial, max, r.retry, r.unit))
        << r.initial << " " << r.max << " " << r.retry << " " << r.unit;
    EXPECT_EQ(got, supervisor_formula(initial, max, r.retry, r.unit))
        << r.initial << " " << r.max << " " << r.retry << " " << r.unit;
  }
}

TEST(UtilBackoff, IsCappedAndJitteredIntoTheUpperHalf) {
  for (int retry = 0; retry < 80; ++retry) {
    const milliseconds lo = backoff(milliseconds(10), milliseconds(300), retry,
                                    0.0);
    const milliseconds hi = backoff(milliseconds(10), milliseconds(300), retry,
                                    1.0 - 0x1.0p-53);
    EXPECT_LE(hi.count(), 300) << retry;
    EXPECT_GE(lo.count(), hi.count() / 2) << retry;
  }
  EXPECT_EQ(backoff(milliseconds(10), milliseconds(300), 64, 0.0).count(), 150);
}

}  // namespace
}  // namespace bp::util
