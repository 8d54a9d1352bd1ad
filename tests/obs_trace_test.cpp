// Tests for structured tracing: deterministic head-sampling, the
// bounded ring, and the byte-determinism contract of render() across
// runs and thread counts — for the raw sink, the scoring engine's
// request path, and the training pipeline's stage spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/polygraph.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/retrain_supervisor.h"
#include "serve/scoring_engine.h"
#include "util/rng.h"

namespace bp::obs {
namespace {

// ------------------------------ sampling -------------------------------

TEST(ObsTrace, SamplingIsPureInSeedAndTraceId) {
  TraceSinkConfig config;
  config.sample_rate = 0.5;
  config.seed = 1234;
  const TraceSink a(config);
  const TraceSink b(config);
  std::size_t kept = 0;
  for (std::uint64_t id = 1; id <= 2'000; ++id) {
    EXPECT_EQ(a.sampled(id), b.sampled(id)) << "id " << id;
    if (a.sampled(id)) ++kept;
  }
  // Head-sampling at 50%: the kept fraction concentrates around half.
  EXPECT_GT(kept, 800u);
  EXPECT_LT(kept, 1'200u);

  TraceSinkConfig other = config;
  other.seed = 99;
  const TraceSink c(other);
  std::size_t disagreements = 0;
  for (std::uint64_t id = 1; id <= 2'000; ++id) {
    if (a.sampled(id) != c.sampled(id)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0u);  // a different seed samples different ids
}

TEST(ObsTrace, RateZeroDropsEverythingRateOneKeepsEverything) {
  TraceSinkConfig none;
  none.sample_rate = 0.0;
  TraceSinkConfig all;
  all.sample_rate = 1.0;
  TraceSink drop(none);
  TraceSink keep(all);
  for (std::uint64_t id = 0; id < 100; ++id) {
    EXPECT_FALSE(drop.sampled(id));
    EXPECT_TRUE(keep.sampled(id));
  }
  drop.record({1, 1, 0, "x", 0, 1});
  EXPECT_EQ(drop.recorded(), 0u);  // dropped before the lock
  keep.record({1, 1, 0, "x", 0, 1});
  EXPECT_EQ(keep.recorded(), 1u);
}

// The one id sampler trace and audit share must decide exactly what the
// split-stream formula it replaced decided, so no recorded trace or
// audit set moves.  The reference stays spelled out here.
TEST(ObsSampling, SharedSamplerMatchesRngSplitReference) {
  const double rates[] = {0.0, 0.001, 0.01, 0.5, 0.999, 1.0};
  for (const std::uint64_t seed :
       {std::uint64_t{0x9d2c5680}, std::uint64_t{0}, std::uint64_t{7},
        ~std::uint64_t{0}}) {
    std::vector<util::IdSampler> samplers;
    for (const double rate : rates) samplers.emplace_back(seed, rate);
    const util::Rng parent(seed);
    std::size_t mismatches = 0;
    for (std::uint64_t id = 0; id <= 1'000'000; ++id) {
      const double u = parent.split(id).uniform();
      for (std::size_t r = 0; r < samplers.size(); ++r) {
        mismatches += samplers[r].keep(id) != (u < rates[r]);
      }
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
  // Trace and audit hold the same sampler for the same (seed, rate).
  const TraceSink sink({.sample_rate = 0.01, .seed = 7});
  const AuditTrail audit({.unflagged_sample_rate = 0.01, .seed = 7});
  for (std::uint64_t id = 0; id < 10'000; ++id) {
    EXPECT_EQ(sink.sampled(id), audit.sample_unflagged(id)) << "id " << id;
  }
}

// -------------------------------- ring ---------------------------------

TEST(ObsTrace, RingOverwritesOldestAndCountsIt) {
  TraceSinkConfig config;
  config.capacity = 4;
  TraceSink sink(config);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    sink.record({id, 1, 0, "span", 0, 1});
  }
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.overwritten(), 6u);
  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // The four youngest traces survive, sorted by (trace_id, span_id).
  EXPECT_EQ(events.front().trace_id, 7u);
  EXPECT_EQ(events.back().trace_id, 10u);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

// ---------------------------- determinism ------------------------------

// Record the same span set from `n_threads` threads and render without
// timing: the output must not depend on arrival order.
std::string render_from_threads(int n_threads) {
  TraceSink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&sink, t, n_threads] {
      for (std::uint64_t id = 1 + static_cast<std::uint64_t>(t); id <= 64;
           id += static_cast<std::uint64_t>(n_threads)) {
        sink.record({id, 2, 1, "child", 10, 20});
        sink.record({id, 1, 0, "root", 0, 30});
      }
    });
  }
  for (auto& t : threads) t.join();
  return sink.render(/*include_timing=*/false);
}

TEST(ObsTrace, RenderWithoutTimingIsByteIdenticalAcrossThreadCounts) {
  const std::string one = render_from_threads(1);
  const std::string four = render_from_threads(4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("trace=1 span=1 parent=0 name=root"), std::string::npos);
  EXPECT_EQ(one.find("start="), std::string::npos);  // timing suppressed
}

TEST(ObsTrace, RenderWithTimingCarriesTimestamps) {
  TraceSink sink;
  sink.record({3, 1, 0, "root", 100, 250});
  const std::string text = sink.render(/*include_timing=*/true);
  EXPECT_NE(text.find("start=100"), std::string::npos);
  EXPECT_NE(text.find("end=250"), std::string::npos);
  EXPECT_NE(text.find("dur_us=150"), std::string::npos);
}

// --------------------------- engine tracing ----------------------------

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100,
                                ua::Os::kWindows10};

core::Polygraph make_tiny_model() {
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
  table.assign(kChrome100, 0);
  table.assign(kFirefox100, 1);
  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

std::string run_engine_and_render(std::size_t workers, double sample_rate) {
  serve::ModelRegistry registry;
  registry.publish(make_tiny_model());
  TraceSinkConfig trace_config;
  trace_config.sample_rate = sample_rate;
  TraceSink sink(trace_config);
  serve::EngineConfig config;
  config.workers = workers;
  config.trace = &sink;
  {
    serve::ScoringEngine engine(registry, config, {});
    for (std::uint64_t id = 1; id <= 48; ++id) {
      serve::ScoreRequest request;
      request.id = id;
      request.features = {0, 0};
      request.claimed = kChrome100;
      EXPECT_EQ(engine.submit(std::move(request)),
                serve::SubmitResult::kAdmitted)
          << "id " << id;
    }
    engine.drain();
    engine.stop();
  }
  return sink.render(/*include_timing=*/false);
}

TEST(ObsTrace, EngineRequestTraceDeterministicAcrossWorkerCounts) {
  const std::string one = run_engine_and_render(1, 1.0);
  const std::string four = run_engine_and_render(4, 1.0);
  EXPECT_EQ(one, four);
  // Span convention: 1 root, 2 queue_wait, 3 terminal.
  EXPECT_NE(one.find("trace=1 span=1 parent=0 name=request"),
            std::string::npos);
  EXPECT_NE(one.find("trace=1 span=2 parent=1 name=queue_wait"),
            std::string::npos);
  EXPECT_NE(one.find("trace=1 span=3 parent=1 name=score"),
            std::string::npos);
}

TEST(ObsTrace, EngineSamplesRequestsDeterministically) {
  const std::string a = run_engine_and_render(2, 0.5);
  const std::string b = run_engine_and_render(3, 0.5);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());

  // The sampled set is exactly what an identically-seeded sink predicts.
  const TraceSink reference(TraceSinkConfig{.sample_rate = 0.5});
  for (std::uint64_t id = 1; id <= 48; ++id) {
    const std::string needle =
        "trace=" + std::to_string(id) + " span=1 ";
    EXPECT_EQ(a.find(needle) != std::string::npos, reference.sampled(id))
        << "id " << id;
  }
}

// --------------------------- training spans ----------------------------

TEST(ObsTrace, TrainingPipelineEmitsStageSpansAndMetrics) {
  // Tiny but genuine training run: two well-separated blobs.
  constexpr std::size_t kRows = 40;
  ml::Matrix features(kRows, 2);
  std::vector<ua::UserAgent> uas;
  for (std::size_t i = 0; i < kRows; ++i) {
    const bool high = i >= kRows / 2;
    features(i, 0) = (high ? 10.0 : 0.0) + 0.01 * static_cast<double>(i % 5);
    features(i, 1) = (high ? 10.0 : 0.0) + 0.01 * static_cast<double>(i % 3);
    uas.push_back(high ? kFirefox100 : kChrome100);
  }
  core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;
  config.kmeans_restarts = 1;
  config.align_rare_labels = false;

  MetricsRegistry registry;
  TraceSink sink;
  ObsContext obs{&registry, &sink, /*trace_id=*/77};

  core::Polygraph model(config);
  const core::TrainingSummary summary = model.train(features, uas, &obs);
  EXPECT_EQ(summary.rows_total, kRows);

  const std::string text = sink.render(/*include_timing=*/false);
  EXPECT_NE(text.find("trace=77 span=1 parent=0 name=train"),
            std::string::npos);
  EXPECT_NE(text.find("trace=77 span=2 parent=1 name=scale"),
            std::string::npos);
  EXPECT_NE(text.find("trace=77 span=3 parent=1 name=filter"),
            std::string::npos);
  EXPECT_NE(text.find("trace=77 span=4 parent=1 name=pca"),
            std::string::npos);
  EXPECT_NE(text.find("trace=77 span=5 parent=1 name=kmeans"),
            std::string::npos);
  EXPECT_NE(text.find("trace=77 span=6 parent=1 name=table"),
            std::string::npos);

  EXPECT_EQ(registry.counter("bp_training_runs_total").value(), 1u);
  EXPECT_EQ(registry.counter("bp_training_rows_total").value(), kRows);
  EXPECT_GE(registry.gauge("bp_training_total_seconds").value(), 0.0);
}

// ---------------------- supervisor cycle tracing -----------------------

TEST(ObsTrace, RetrainCycleEmitsSpans) {
  MetricsRegistry metrics;
  TraceSink sink;
  serve::ModelRegistry models;
  serve::RetrainConfig config;
  config.max_attempts = 1;
  config.trace = &sink;
  serve::RetrainSupervisor supervisor(
      models, config, [] { return true; },
      [] { return std::optional<core::Polygraph>(make_tiny_model()); },
      [](const core::Polygraph&) { return true; },
      [](std::chrono::milliseconds) {});
  ASSERT_EQ(supervisor.run_cycle(), serve::CycleResult::kPublished);

  const std::string text = sink.render(/*include_timing=*/false);
  const std::string trace_prefix =
      "trace=" + std::to_string((std::uint64_t{1} << 62) + 1);
  EXPECT_NE(text.find(trace_prefix + " span=1 parent=0 name=retrain_cycle"),
            std::string::npos);
  EXPECT_NE(text.find(trace_prefix + " span=2 parent=1 name=drift_check"),
            std::string::npos);
  EXPECT_NE(text.find(trace_prefix + " span=3 parent=1 name=train"),
            std::string::npos);
  EXPECT_NE(text.find(trace_prefix + " span=4 parent=1 name=validate"),
            std::string::npos);
  EXPECT_NE(text.find(trace_prefix + " span=5 parent=1 name=publish"),
            std::string::npos);
}

}  // namespace
}  // namespace bp::obs
