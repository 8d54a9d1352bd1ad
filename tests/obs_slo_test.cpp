// Tests for the windowed SLO layer: TimeSeriesWindow rate/delta
// derivation, SloEngine rule evaluation with hysteresis, and the
// HealthModel fold.
//
// The load-bearing test is the determinism acceptance check: a
// scripted latency/error trace on an injected fake clock must produce
// a byte-identical kOk->kWarn->kPage->kOk transition log across runs
// AND across the number of threads feeding the underlying counters —
// alert decisions are pure in (clock ticks, snapshot values).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/slo/health.h"
#include "obs/slo/slo_engine.h"
#include "obs/slo/time_series.h"

namespace bp::obs::slo {
namespace {

// ---------------------------- TimeSeriesWindow ----------------------------

TEST(ObsSloWindow, CounterDeltaAndRate) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events_total");
  TimeSeriesWindow window(registry, 16);
  window.track("events", "events_total");

  window.sample(0);
  c.add(100);
  window.sample(1'000);
  c.add(300);
  window.sample(2'000);

  EXPECT_DOUBLE_EQ(window.latest("events"), 400.0);
  EXPECT_DOUBLE_EQ(window.delta("events", 1'000), 300.0);
  EXPECT_DOUBLE_EQ(window.delta("events", 2'000), 400.0);
  EXPECT_DOUBLE_EQ(window.rate_per_second("events", 1'000), 300.0);
  EXPECT_DOUBLE_EQ(window.rate_per_second("events", 2'000), 200.0);
}

TEST(ObsSloWindow, SumSeriesFoldsSeveralMetrics) {
  MetricsRegistry registry;
  Counter& shed = registry.counter("shed_total");
  Counter& deadline = registry.counter("deadline_total");
  TimeSeriesWindow window(registry, 8);
  window.track_sum("bad", {"shed_total", "deadline_total"});

  window.sample(0);
  shed.add(3);
  deadline.add(4);
  window.sample(1'000);
  EXPECT_DOUBLE_EQ(window.latest("bad"), 7.0);
  EXPECT_DOUBLE_EQ(window.delta("bad", 1'000), 7.0);
}

TEST(ObsSloWindow, HistogramOverThresholdSeries) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency_us");
  TimeSeriesWindow window(registry, 8);
  window.track_histogram_over("slow", "latency_us", 100);
  window.track("all", "latency_us");  // histogram reads as its count

  window.sample(0);
  h.observe(5);
  h.observe(100);   // on the threshold: NOT over it
  h.observe(500);   // over
  h.observe(5'000); // over
  window.sample(1'000);

  EXPECT_DOUBLE_EQ(window.delta("slow", 1'000), 2.0);
  EXPECT_DOUBLE_EQ(window.delta("all", 1'000), 4.0);
}

TEST(ObsSloWindow, RingEvictsOldestAndDeltasFromRetainedHistory) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events_total");
  TimeSeriesWindow window(registry, 3);
  window.track("events", "events_total");

  for (int tick = 0; tick < 6; ++tick) {
    window.sample(tick * 1'000);
    c.add(10);
  }
  // Retained samples: t=3000 (value 30), t=4000 (40), t=5000 (50).
  EXPECT_DOUBLE_EQ(window.latest("events"), 50.0);
  EXPECT_DOUBLE_EQ(window.delta("events", 60'000), 20.0);
  EXPECT_EQ(window.samples(), 6u);
  EXPECT_EQ(window.last_sample_ms(), 5'000);
}

TEST(ObsSloWindow, UnknownSeriesAndUnregisteredMetricsReadZero) {
  MetricsRegistry registry;
  TimeSeriesWindow window(registry, 4);
  window.track("ghost", "never_registered_total");
  window.sample(0);
  window.sample(1'000);
  EXPECT_DOUBLE_EQ(window.latest("ghost"), 0.0);
  EXPECT_DOUBLE_EQ(window.delta("ghost", 1'000), 0.0);
  EXPECT_DOUBLE_EQ(window.latest("not_tracked"), 0.0);
  EXPECT_DOUBLE_EQ(window.rate_per_second("not_tracked", 1'000), 0.0);
}

// ------------------------------- SloEngine -------------------------------

SloRule error_rule(int clear_ticks = 2) {
  SloRule rule;
  rule.name = "shed_rate";
  rule.kind = SloRule::Kind::kErrorRate;
  rule.numerator = "bad";
  rule.denominator = "total";
  rule.short_window_ms = 1'000;
  rule.warn_threshold = 0.05;
  rule.page_threshold = 0.20;
  rule.clear_ticks = clear_ticks;
  return rule;
}

TEST(ObsSlo, ErrorRateEscalatesImmediatelyAndClearsWithHysteresis) {
  MetricsRegistry registry;
  Counter& bad = registry.counter("bad");
  Counter& total = registry.counter("total");
  TimeSeriesWindow window(registry, 16);
  window.track("bad", "bad");
  window.track("total", "total");
  SloEngine engine({error_rule(/*clear_ticks=*/2)});

  const auto tick = [&](std::int64_t at_ms, std::uint64_t b,
                        std::uint64_t t) {
    bad.add(b);
    total.add(t);
    window.sample(at_ms);
    return engine.evaluate(window, at_ms);
  };

  window.sample(0);
  EXPECT_EQ(tick(1'000, 0, 100), AlertState::kOk);
  EXPECT_EQ(tick(2'000, 10, 100), AlertState::kWarn);   // 10% >= warn
  EXPECT_EQ(tick(3'000, 30, 100), AlertState::kPage);   // 30% >= page
  EXPECT_EQ(tick(4'000, 0, 100), AlertState::kPage);    // quiet 1: held
  EXPECT_EQ(tick(5'000, 0, 100), AlertState::kOk);      // quiet 2: clears
  // A single quiet tick between two breaches must NOT clear.
  EXPECT_EQ(tick(6'000, 30, 100), AlertState::kPage);
  EXPECT_EQ(tick(7'000, 0, 100), AlertState::kPage);
  EXPECT_EQ(tick(8'000, 30, 100), AlertState::kPage);

  const std::vector<AlertTransition> transitions = engine.transitions();
  ASSERT_EQ(transitions.size(), 4u);
  EXPECT_EQ(transitions[0].to, AlertState::kWarn);
  EXPECT_EQ(transitions[1].to, AlertState::kPage);
  EXPECT_EQ(transitions[2].to, AlertState::kOk);
  EXPECT_EQ(transitions[3].to, AlertState::kPage);
  EXPECT_EQ(transitions[3].from, AlertState::kOk);
}

TEST(ObsSlo, BurnRateFiresOnlyWhenBothWindowsBurn) {
  MetricsRegistry registry;
  Counter& slow = registry.counter("slow");
  Counter& total = registry.counter("total");
  TimeSeriesWindow window(registry, 16);
  window.track("slow", "slow");
  window.track("total", "total");

  SloRule rule;
  rule.name = "latency_burn";
  rule.kind = SloRule::Kind::kBurnRate;
  rule.numerator = "slow";
  rule.denominator = "total";
  rule.budget = 0.10;  // 10% of requests may miss the budget
  rule.short_window_ms = 1'000;
  rule.long_window_ms = 3'000;
  rule.warn_burn = 2.0;
  rule.page_burn = 5.0;
  rule.clear_ticks = 2;
  SloEngine engine({rule});

  const auto tick = [&](std::int64_t at_ms, std::uint64_t s,
                        std::uint64_t t) {
    slow.add(s);
    total.add(t);
    window.sample(at_ms);
    return engine.evaluate(window, at_ms);
  };

  window.sample(0);
  EXPECT_EQ(tick(1'000, 0, 100), AlertState::kOk);
  // Short window warns (20%/10% = 2x) but the long window is still
  // diluted by the clean history: burn 20/200 = 1x, no alert.
  EXPECT_EQ(tick(2'000, 20, 100), AlertState::kOk);
  // Short window burns at page level (5x) but the long window only
  // confirms warn: 70/300 = 2.3x.
  EXPECT_EQ(tick(3'000, 50, 100), AlertState::kWarn);
  EXPECT_EQ(tick(4'000, 50, 100), AlertState::kWarn);  // long: 120/300 = 4x
  EXPECT_EQ(tick(5'000, 100, 100), AlertState::kPage); // long: 200/300 = 6.7x
  EXPECT_EQ(tick(6'000, 0, 100), AlertState::kPage);   // quiet tick 1
  EXPECT_EQ(tick(7'000, 0, 100), AlertState::kOk);     // quiet tick 2: clears
}

TEST(ObsSlo, CeilingRuleTracksGaugeLevel) {
  MetricsRegistry registry;
  Gauge& staleness = registry.gauge("staleness");
  TimeSeriesWindow window(registry, 8);
  window.track("staleness", "staleness");

  SloRule rule;
  rule.name = "model_staleness";
  rule.kind = SloRule::Kind::kCeiling;
  rule.numerator = "staleness";
  rule.warn_threshold = 3.0;
  rule.page_threshold = 10.0;
  rule.clear_ticks = 1;
  SloEngine engine({rule});

  const auto tick = [&](std::int64_t at_ms, double level) {
    staleness.set(level);
    window.sample(at_ms);
    return engine.evaluate(window, at_ms);
  };

  EXPECT_EQ(tick(1'000, 0.0), AlertState::kOk);
  EXPECT_EQ(tick(2'000, 5.0), AlertState::kWarn);
  EXPECT_EQ(tick(3'000, 12.0), AlertState::kPage);
  EXPECT_EQ(tick(4'000, 0.0), AlertState::kOk);  // clear_ticks=1
}

// The acceptance check: a scripted latency/error trace over a fake
// clock yields a byte-identical transition log no matter how many
// threads feed the instruments and no matter how often it is re-run.
TEST(ObsSlo, TransitionLogByteIdenticalAcrossRunsAndThreadCounts) {
  constexpr std::uint64_t kBudgetMicros = 100'000;

  // Per-tick script: {fast (50us) observations, slow (200ms)
  // observations, shed count, total submissions}.
  struct Step {
    std::uint64_t fast, slow, shed, total;
  };
  const std::vector<Step> script = {
      {100, 0, 0, 100},  {80, 20, 0, 100},  {50, 50, 2, 100},
      {50, 50, 30, 100}, {0, 100, 30, 100}, {100, 0, 0, 100},
      {100, 0, 0, 100},  {100, 0, 0, 100},
  };

  const auto run = [&](unsigned n_threads) {
    MetricsRegistry registry;
    Histogram& latency = registry.histogram("latency_us");
    Counter& shed = registry.counter("shed_total");
    Counter& total = registry.counter("submitted_total");

    TimeSeriesWindow window(registry, 32);
    window.track_histogram_over("over_budget", "latency_us", kBudgetMicros);
    window.track("answered", "latency_us");
    window.track("shed", "shed_total");
    window.track("total", "submitted_total");

    SloRule burn;
    burn.name = "latency_budget_burn";
    burn.kind = SloRule::Kind::kBurnRate;
    burn.numerator = "over_budget";
    burn.denominator = "answered";
    burn.budget = 0.10;
    burn.short_window_ms = 1'000;
    burn.long_window_ms = 3'000;
    burn.warn_burn = 2.0;
    burn.page_burn = 5.0;
    burn.clear_ticks = 2;

    SloRule shed_rate = error_rule(/*clear_ticks=*/2);
    shed_rate.name = "shed_rate";
    shed_rate.numerator = "shed";
    shed_rate.denominator = "total";

    SloEngine engine({burn, shed_rate});

    window.sample(0);
    std::int64_t now_ms = 0;
    for (const Step& step : script) {
      now_ms += 1'000;
      // Spread this tick's events across n_threads writers (distinct
      // stripe hints), then join so the fold is quiescent at sample
      // time — exactly the engine-workers-then-scrape pattern.
      std::vector<std::thread> writers;
      for (unsigned t = 0; t < n_threads; ++t) {
        writers.emplace_back([&, t] {
          const auto share = [&](std::uint64_t n) {
            return n / n_threads + (t < n % n_threads ? 1 : 0);
          };
          for (std::uint64_t i = 0; i < share(step.fast); ++i) {
            latency.observe(50, t);
          }
          for (std::uint64_t i = 0; i < share(step.slow); ++i) {
            latency.observe(200'000, t);
          }
          shed.add(share(step.shed), t);
          total.add(share(step.total), t);
        });
      }
      for (std::thread& w : writers) w.join();
      window.sample(now_ms);
      engine.evaluate(window, now_ms);
    }
    return engine.render_transitions();
  };

  const std::string log_1t = run(1);
  // The full alert lifecycle must appear, in order.
  const std::size_t warn = log_1t.find("latency_budget_burn kOk->kWarn");
  const std::size_t page = log_1t.find("latency_budget_burn kWarn->kPage");
  const std::size_t ok = log_1t.find("latency_budget_burn kPage->kOk");
  ASSERT_NE(warn, std::string::npos) << log_1t;
  ASSERT_NE(page, std::string::npos) << log_1t;
  ASSERT_NE(ok, std::string::npos) << log_1t;
  EXPECT_LT(warn, page);
  EXPECT_LT(page, ok);
  EXPECT_NE(log_1t.find("shed_rate"), std::string::npos) << log_1t;

  // Byte-identical across thread counts and across repeated runs.
  EXPECT_EQ(log_1t, run(2));
  EXPECT_EQ(log_1t, run(4));
  EXPECT_EQ(log_1t, run(1));
  EXPECT_EQ(log_1t, run(4));
}

// ------------------------------ HealthModel ------------------------------

TEST(ObsHealth, FoldVerdicts) {
  HealthSignals signals;

  // No model published: not ready.
  {
    const HealthReport report =
        HealthModel::fold(signals, AlertState::kOk, AlertState::kOk);
    EXPECT_FALSE(report.ready);
    EXPECT_NE(report.detail.find("nothing published"), std::string::npos);
  }
  // Model published: ready.
  signals.model_version = 3;
  {
    const HealthReport report =
        HealthModel::fold(signals, AlertState::kOk, AlertState::kOk);
    EXPECT_TRUE(report.ready);
  }
  // Degraded mode active: not ready.
  signals.degraded_active = true;
  EXPECT_FALSE(
      HealthModel::fold(signals, AlertState::kOk, AlertState::kOk).ready);
  signals.degraded_active = false;

  // A paging readiness-gating rule pulls the instance from rotation;
  // a merely-reported page does not.
  EXPECT_FALSE(
      HealthModel::fold(signals, AlertState::kPage, AlertState::kPage).ready);
  EXPECT_TRUE(
      HealthModel::fold(signals, AlertState::kOk, AlertState::kPage).ready);
  EXPECT_EQ(HealthModel::fold(signals, AlertState::kOk, AlertState::kPage)
                .worst_alert,
            AlertState::kPage);
}

TEST(ObsHealth, EvaluatePullsSignalsAndSloState) {
  MetricsRegistry registry;
  Gauge& staleness = registry.gauge("staleness");
  TimeSeriesWindow window(registry, 8);
  window.track("staleness", "staleness");

  SloRule rule;
  rule.name = "staleness_ceiling";
  rule.kind = SloRule::Kind::kCeiling;
  rule.numerator = "staleness";
  rule.page_threshold = 5.0;
  rule.clear_ticks = 1;
  rule.gate_readiness = true;
  SloEngine slo({rule});

  HealthSignals signals;
  signals.model_version = 1;
  HealthModel model([&] { return signals; }, &slo);

  EXPECT_TRUE(model.evaluate().ready);

  staleness.set(9.0);
  window.sample(1'000);
  slo.evaluate(window, 1'000);
  const HealthReport paged = model.evaluate();
  EXPECT_FALSE(paged.ready);  // gating rule at kPage
  EXPECT_EQ(paged.worst_alert, AlertState::kPage);

  staleness.set(0.0);
  window.sample(2'000);
  slo.evaluate(window, 2'000);
  EXPECT_TRUE(model.evaluate().ready);
}

}  // namespace
}  // namespace bp::obs::slo
