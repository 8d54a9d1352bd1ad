// Tests for the readiness fold (obs/health.h): readiness is "a model is
// published"; every other signal is shown in the detail and never
// gates.
#include <gtest/gtest.h>

#include <string>

#include "obs/health.h"

namespace bp::obs {
namespace {

TEST(ObsHealth, FoldVerdicts) {
  struct Case {
    const char* what;
    HealthSignals signals;
    bool ready;
    const char* shown;  // a line the detail must carry
  };
  const Case cases[] = {
      {"no model", {}, false, "model_version: 0 (nothing published)\n"},
      {"published", {.model_version = 3}, true, "model_version: 3\n"},
      {"breaker open", {.model_version = 3, .breaker_open = true}, true,
       "retrain_breaker: OPEN\n"},
      {"quarantined", {.model_version = 3, .quarantined = 2}, true,
       "quarantined_models: 2\n"},
      {"armed faults", {.model_version = 3, .armed_faults = 5}, true,
       "armed_faults: 5\n"},
  };
  for (const Case& c : cases) {
    const HealthReport report = fold(c.signals);
    EXPECT_EQ(report.ready, c.ready) << c.what;
    const std::string verdict = c.ready ? "ready: true\n" : "ready: false\n";
    EXPECT_EQ(report.detail.rfind(verdict, 0), 0u)
        << c.what << "\n" << report.detail;
    EXPECT_NE(report.detail.find(c.shown), std::string::npos)
        << c.what << "\n" << report.detail;
  }
}

}  // namespace
}  // namespace bp::obs
