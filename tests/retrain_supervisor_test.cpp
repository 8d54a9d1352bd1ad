// Tests for the retraining supervisor: retry/backoff schedule (with
// deterministic jitter), circuit breaker open/cooldown/half-open-probe,
// and the model-staleness gauge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "serve/retrain_supervisor.h"

namespace bp::serve {
namespace {

using std::chrono::milliseconds;

ua::UserAgent chrome(int v) { return {ua::Vendor::kChrome, v, ua::Os::kWindows10}; }
ua::UserAgent firefox(int v) {
  return {ua::Vendor::kFirefox, v, ua::Os::kWindows10};
}

core::Polygraph tiny_model() {
  core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;
  ml::Matrix centroids(2, 2);
  centroids(1, 0) = 10.0;
  centroids(1, 1) = 10.0;
  ml::KMeansConfig kconfig;
  kconfig.k = 2;
  core::ClusterTable table;
  table.assign(chrome(100), 0);
  table.assign(firefox(100), 1);
  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

// A sleep recorder so backoff schedules are asserted without waiting.
struct SleepRecorder {
  std::vector<milliseconds> slept;
  RetrainSupervisor::SleepFn fn() {
    return [this](milliseconds d) { slept.push_back(d); };
  }
};

TEST(RetrainSupervisor, NoDriftLeavesRegistryUntouched) {
  ModelRegistry registry;
  RetrainSupervisor supervisor(
      registry, RetrainConfig{}, /*drift_check=*/[] { return false; },
      /*train=*/[] { return std::optional<core::Polygraph>(tiny_model()); },
      /*validate=*/{}, SleepRecorder{}.fn());
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kNoDrift);
  EXPECT_EQ(registry.version(), 0u);
  const auto status = supervisor.status();
  EXPECT_EQ(status.cycles, 1u);
  EXPECT_EQ(status.attempts, 0u);
  EXPECT_EQ(status.staleness_cycles, 1u);
}

TEST(RetrainSupervisor, DriftPlusHealthyPipelinePublishes) {
  ModelRegistry registry;
  RetrainSupervisor supervisor(
      registry, RetrainConfig{}, [] { return true; },
      [] { return std::optional<core::Polygraph>(tiny_model()); },
      [](const core::Polygraph& m) { return m.trained(); });
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kPublished);
  EXPECT_EQ(registry.version(), 1u);
  const auto status = supervisor.status();
  EXPECT_EQ(status.published, 1u);
  EXPECT_EQ(status.last_published_version, 1u);
  EXPECT_EQ(status.staleness_cycles, 0u);
  EXPECT_FALSE(status.breaker_open);
}

TEST(RetrainSupervisor, RetriesWithExponentialJitteredBackoff) {
  ModelRegistry registry;
  SleepRecorder recorder;
  int calls = 0;
  RetrainSupervisor supervisor(
      registry, RetrainConfig{}, [] { return true; },
      [&]() -> std::optional<core::Polygraph> {
        // Fail twice, succeed on the third attempt.
        if (++calls < 3) return std::nullopt;
        return tiny_model();
      },
      {}, recorder.fn());

  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kPublished);
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(recorder.slept.size(), 2u);
  // initial_backoff=100ms, multiplier=2, jitter in [0.5, 1.0):
  EXPECT_GE(recorder.slept[0].count(), 50);
  EXPECT_LT(recorder.slept[0].count(), 100);
  EXPECT_GE(recorder.slept[1].count(), 100);
  EXPECT_LT(recorder.slept[1].count(), 200);
  EXPECT_EQ(supervisor.status().attempts, 3u);
}

TEST(RetrainSupervisor, BackoffScheduleIsDeterministicPerSeed) {
  const auto schedule_for = [](std::uint64_t seed) {
    ModelRegistry registry;
    SleepRecorder recorder;
    RetrainConfig config;
    config.jitter_seed = seed;
    config.max_attempts = 5;
    RetrainSupervisor supervisor(
        registry, config, [] { return true; },
        []() -> std::optional<core::Polygraph> { return std::nullopt; }, {},
        recorder.fn());
    supervisor.run_cycle();
    return recorder.slept;
  };
  const auto a = schedule_for(7);
  const auto b = schedule_for(7);
  const auto c = schedule_for(8);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(RetrainSupervisor, BackoffIsCappedAtMax) {
  ModelRegistry registry;
  SleepRecorder recorder;
  RetrainConfig config;
  config.max_attempts = 8;
  config.initial_backoff = milliseconds(100);
  config.max_backoff = milliseconds(300);
  RetrainSupervisor supervisor(
      registry, config, [] { return true; },
      []() -> std::optional<core::Polygraph> { return std::nullopt; }, {},
      recorder.fn());
  supervisor.run_cycle();
  ASSERT_EQ(recorder.slept.size(), 7u);
  for (const auto d : recorder.slept) {
    EXPECT_LT(d.count(), 300);
    EXPECT_GE(d.count(), 50);
  }
}

TEST(RetrainSupervisor, ValidationFailureCountsAsFailedAttempt) {
  ModelRegistry registry;
  SleepRecorder recorder;
  RetrainSupervisor supervisor(
      registry, RetrainConfig{}, [] { return true; },
      [] { return std::optional<core::Polygraph>(tiny_model()); },
      [](const core::Polygraph&) { return false; },  // holdout always fails
      recorder.fn());
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kFailed);
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(supervisor.status().attempts, 3u);  // default max_attempts
  EXPECT_EQ(supervisor.status().failed_cycles, 1u);
}

TEST(RetrainSupervisor, BreakerOpensCoolsDownAndProbes) {
  ModelRegistry registry;
  SleepRecorder recorder;
  RetrainConfig config;
  config.max_attempts = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown_cycles = 2;
  std::atomic<bool> train_healthy{false};
  RetrainSupervisor supervisor(
      registry, config, [] { return true; },
      [&]() -> std::optional<core::Polygraph> {
        if (train_healthy.load()) return tiny_model();
        return std::nullopt;
      },
      {}, recorder.fn());

  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kFailed);   // streak 1
  EXPECT_FALSE(supervisor.status().breaker_open);
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kFailed);   // streak 2: opens
  EXPECT_TRUE(supervisor.status().breaker_open);

  // Two cooldown cycles pass without touching the training pipeline.
  const auto attempts_before = supervisor.status().attempts;
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kBreakerOpen);
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kBreakerOpen);
  EXPECT_EQ(supervisor.status().attempts, attempts_before);

  // Half-open probe while still broken: fails, breaker re-opens.
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kFailed);
  EXPECT_TRUE(supervisor.status().breaker_open);
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kBreakerOpen);
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kBreakerOpen);

  // Pipeline fixed: the next probe publishes and closes the breaker.
  train_healthy.store(true);
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kPublished);
  EXPECT_FALSE(supervisor.status().breaker_open);
  EXPECT_EQ(supervisor.status().consecutive_failures, 0);
  EXPECT_EQ(registry.version(), 1u);
}

TEST(RetrainSupervisor, StalenessGaugeTracksCyclesSinceLastPublish) {
  ModelRegistry registry;
  SleepRecorder recorder;
  RetrainConfig config;
  config.max_attempts = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown_cycles = 1;
  std::atomic<bool> train_healthy{true};
  RetrainSupervisor supervisor(
      registry, config, [] { return true; },
      [&]() -> std::optional<core::Polygraph> {
        if (train_healthy.load()) return tiny_model();
        return std::nullopt;
      },
      {}, recorder.fn());

  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kPublished);
  EXPECT_EQ(supervisor.status().staleness_cycles, 0u);

  train_healthy.store(false);
  supervisor.run_cycle();  // failed
  supervisor.run_cycle();  // failed, breaker opens
  supervisor.run_cycle();  // breaker open
  EXPECT_EQ(supervisor.status().staleness_cycles, 3u);

  train_healthy.store(true);
  supervisor.run_cycle();  // probe publishes
  EXPECT_EQ(supervisor.status().staleness_cycles, 0u);
}

TEST(RetrainSupervisor, ResetBreakerRestoresTraining) {
  ModelRegistry registry;
  SleepRecorder recorder;
  RetrainConfig config;
  config.max_attempts = 1;
  config.breaker_threshold = 1;
  config.breaker_cooldown_cycles = 100;  // would stay open a long time
  std::atomic<bool> train_healthy{false};
  RetrainSupervisor supervisor(
      registry, config, [] { return true; },
      [&]() -> std::optional<core::Polygraph> {
        if (train_healthy.load()) return tiny_model();
        return std::nullopt;
      },
      {}, recorder.fn());

  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kFailed);
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kBreakerOpen);

  train_healthy.store(true);
  supervisor.reset_breaker();  // operator fixed the pipeline
  EXPECT_EQ(supervisor.run_cycle(), CycleResult::kPublished);
}

}  // namespace
}  // namespace bp::serve
