// Tests for the serving subsystem: ModelRegistry hot-swap semantics and
// the ScoringEngine's concurrency invariants.
//
// The models here are hand-assembled via Polygraph::from_parts (identity
// scaler/PCA over 2 features, two fixed centroids) so the suite runs in
// milliseconds and stays meaningful under TSan: model A and model B
// differ only in their UA<->cluster tables, so whether a response is
// flagged reveals exactly which published version scored it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"

namespace bp::serve {
namespace {

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100, ua::Os::kWindows10};

// Cluster 0 sits at (0, 0), cluster 1 at (10, 10).  Model A expects
// Chrome 100 in cluster 0; model B expects it in cluster 1.  A session
// with features (0, 0) claiming Chrome 100 is therefore clean under A
// and flagged under B.
core::Polygraph make_model(bool swapped_table) {
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
  table.assign(kChrome100, swapped_table ? 1 : 0);
  table.assign(kFirefox100, swapped_table ? 0 : 1);

  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

ScoreRequest request_at_origin(std::uint64_t id) {
  ScoreRequest request;
  request.id = id;
  request.features = {0, 0};
  request.claimed = kChrome100;
  return request;
}

// ------------------------------ registry ------------------------------

TEST(ServeRegistry, EmptyUntilFirstPublish) {
  ModelRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  const ModelSnapshot snapshot = registry.current();
  EXPECT_FALSE(snapshot);
  EXPECT_EQ(snapshot.model, nullptr);
  EXPECT_EQ(snapshot.version, 0u);
}

TEST(ServeRegistry, PublishAssignsMonotonicVersions) {
  ModelRegistry registry;
  EXPECT_EQ(registry.publish(make_model(false)), 1u);
  EXPECT_EQ(registry.publish(make_model(true)), 2u);
  EXPECT_EQ(registry.publish(make_model(false)), 3u);
  EXPECT_EQ(registry.version(), 3u);
  const ModelSnapshot snapshot = registry.current();
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot.version, 3u);
}

TEST(ServeRegistry, RejectsNullAndUntrainedModels) {
  ModelRegistry registry;
  EXPECT_EQ(registry.publish(std::shared_ptr<const core::Polygraph>{}), 0u);
  core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  EXPECT_EQ(registry.publish(core::Polygraph(config)), 0u);  // never trained
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_FALSE(registry.current());
}

TEST(ServeRegistry, SnapshotSurvivesSupersedingPublish) {
  ModelRegistry registry;
  registry.publish(make_model(false));
  const ModelSnapshot held = registry.current();
  registry.publish(make_model(true));
  // The old snapshot keeps scoring consistently even after the swap.
  ASSERT_TRUE(held);
  EXPECT_EQ(held.version, 1u);
  core::ScoringScratch scratch;
  const auto detection =
      held.model->score(std::span<const std::int32_t>(
                            std::vector<std::int32_t>{0, 0}),
                        kChrome100, scratch);
  EXPECT_FALSE(detection.flagged);
}

// ------------------------------- engine -------------------------------

TEST(ServeEngine, ScoresMatchDirectModelCalls) {
  ModelRegistry registry;
  registry.publish(make_model(false));
  const ModelSnapshot snapshot = registry.current();

  std::mutex mutex;
  std::vector<ScoreResponse> responses;
  EngineConfig config;
  config.workers = 2;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    std::lock_guard lock(mutex);
    responses.push_back(r);
  });

  std::vector<ScoreRequest> sent;
  for (std::uint64_t i = 0; i < 200; ++i) {
    ScoreRequest request;
    request.id = i;
    const bool near_far_cluster = i % 3 == 0;
    request.features = near_far_cluster ? std::vector<std::int32_t>{9, 11}
                                        : std::vector<std::int32_t>{1, 0};
    request.claimed = i % 2 == 0 ? kChrome100 : kFirefox100;
    sent.push_back(request);
    EXPECT_EQ(engine.submit(request), SubmitResult::kAdmitted);
  }
  engine.drain();
  engine.stop();

  ASSERT_EQ(responses.size(), sent.size());
  core::ScoringScratch scratch;
  for (const ScoreResponse& response : responses) {
    const ScoreRequest& original = sent[response.id];
    EXPECT_EQ(response.status, ResponseStatus::kScored);
    EXPECT_EQ(response.model_version, 1u);
    const core::Detection expected = snapshot.model->score(
        std::span<const std::int32_t>(original.features), original.claimed,
        scratch);
    EXPECT_EQ(response.detection.predicted_cluster, expected.predicted_cluster);
    EXPECT_EQ(response.detection.expected_cluster, expected.expected_cluster);
    EXPECT_EQ(response.detection.flagged, expected.flagged);
    EXPECT_EQ(response.detection.risk_factor, expected.risk_factor);
  }
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, sent.size());
  EXPECT_EQ(metrics.shed, 0u);
  EXPECT_EQ(metrics.rejected, 0u);
}

// The tentpole invariant: hammer the engine from several producers while
// a swapper republishes alternating models mid-flight.  No response may
// be lost or duplicated, and every detection must be attributable to
// exactly one published version (here: parity of the version number
// predicts the flag, because A and B invert the cluster table).
TEST(ServeEngine, HotSwapUnderLoadLosesNothingAndVersionsEveryDetection) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2'500;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  constexpr int kSwaps = 40;

  ModelRegistry registry;
  ASSERT_EQ(registry.publish(make_model(false)), 1u);  // odd versions = A

  std::vector<std::atomic<std::uint64_t>> seen_version(kTotal);
  std::vector<std::atomic<int>> seen_count(kTotal);
  std::atomic<std::uint64_t> flag_mismatches{0};

  EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  config.max_batch = 16;
  config.overflow_policy = OverflowPolicy::kBlock;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    seen_count[r.id].fetch_add(1, std::memory_order_relaxed);
    seen_version[r.id].store(r.model_version, std::memory_order_relaxed);
    if (r.status == ResponseStatus::kScored) {
      // Version parity fully determines the expected verdict.
      const bool expect_flagged = r.model_version % 2 == 0;
      if (r.detection.flagged != expect_flagged) {
        flag_mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::atomic<bool> swapping{true};
  std::thread swapper([&] {
    for (int s = 0; s < kSwaps && swapping.load(); ++s) {
      const bool publish_b = s % 2 == 0;  // versions 2,3,4,... alternate
      EXPECT_GT(registry.publish(make_model(publish_b)), 1u);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    swapping.store(false);
  });

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        EXPECT_EQ(engine.submit(request_at_origin(p * kPerProducer + i)),
                  SubmitResult::kAdmitted);
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.drain();
  swapping.store(false);
  swapper.join();
  const std::uint64_t last_version = registry.version();
  engine.stop();

  // Exactly one response per admitted request, no lost, no duplicated.
  for (std::uint64_t id = 0; id < kTotal; ++id) {
    ASSERT_EQ(seen_count[id].load(), 1) << "request " << id;
    const std::uint64_t version = seen_version[id].load();
    EXPECT_GE(version, 1u) << "request " << id;
    EXPECT_LE(version, last_version) << "request " << id;
  }
  // Every detection matched the verdict of the version it claims.
  EXPECT_EQ(flag_mismatches.load(), 0u);

  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, kTotal);  // Block policy: lossless
  EXPECT_EQ(metrics.shed, 0u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.queue_depth, 0u);
  EXPECT_GE(metrics.model_version, 1u);
  EXPECT_GT(metrics.batches, 0u);
}

TEST(ServeEngine, DropOldestShedsExplicitlyAndAccountsEveryRequest) {
  constexpr std::uint64_t kTotal = 1'000;
  ModelRegistry registry;
  registry.publish(make_model(false));

  std::vector<std::atomic<int>> scored(kTotal);
  std::vector<std::atomic<int>> shed(kTotal);

  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.max_batch = 4;
  config.overflow_policy = OverflowPolicy::kDropOldest;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    (r.status == ResponseStatus::kScored ? scored : shed)[r.id].fetch_add(1);
  });

  for (std::uint64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(engine.submit(request_at_origin(i)), SubmitResult::kAdmitted);
  }
  engine.drain();
  engine.stop();

  std::uint64_t n_scored = 0;
  std::uint64_t n_shed = 0;
  for (std::uint64_t id = 0; id < kTotal; ++id) {
    const int responses = scored[id].load() + shed[id].load();
    ASSERT_EQ(responses, 1) << "request " << id;
    n_scored += static_cast<std::uint64_t>(scored[id].load());
    n_shed += static_cast<std::uint64_t>(shed[id].load());
  }
  EXPECT_EQ(n_scored + n_shed, kTotal);

  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, n_scored);
  EXPECT_EQ(metrics.shed, n_shed);
  EXPECT_EQ(metrics.rejected, 0u);
}

TEST(ServeEngine, RejectPolicyRefusesOverloadSynchronously) {
  constexpr std::uint64_t kOffered = 100;
  ModelRegistry registry;  // nothing published yet: workers must wait

  std::vector<std::atomic<int>> responses(kOffered);
  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.max_batch = 4;
  config.overflow_policy = OverflowPolicy::kReject;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    responses[r.id].fetch_add(1);
  });

  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < kOffered; ++i) {
    switch (engine.submit(request_at_origin(i))) {
      case SubmitResult::kAdmitted:
        ++admitted;
        break;
      case SubmitResult::kRejected:
        ++rejected;
        break;
      case SubmitResult::kStopped:
        FAIL() << "engine is running";
    }
  }
  // With no model published, the worker can hold at most one batch while
  // the queue buffers `capacity` more; everything else must bounce.
  EXPECT_LE(admitted, config.queue_capacity + config.max_batch);
  EXPECT_GE(rejected, kOffered - config.queue_capacity - config.max_batch);

  registry.publish(make_model(false));  // un-gate the worker
  engine.drain();
  engine.stop();

  std::uint64_t answered = 0;
  for (std::uint64_t id = 0; id < kOffered; ++id) {
    const int n = responses[id].load();
    ASSERT_LE(n, 1) << "request " << id;
    answered += static_cast<std::uint64_t>(n);
  }
  EXPECT_EQ(answered, admitted);  // rejected submissions get no response
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.rejected, rejected);
  EXPECT_EQ(metrics.scored, admitted);
}

TEST(ServeEngine, StopWithoutModelShedsAdmittedRequests) {
  ModelRegistry registry;
  std::vector<std::atomic<int>> shed(10);
  EngineConfig config;
  config.workers = 2;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    EXPECT_EQ(r.status, ResponseStatus::kShed);
    shed[r.id].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(engine.submit(request_at_origin(i)), SubmitResult::kAdmitted);
  }
  engine.stop();
  for (std::uint64_t id = 0; id < 10; ++id) {
    EXPECT_EQ(shed[id].load(), 1) << "request " << id;
  }
  EXPECT_EQ(engine.submit(request_at_origin(0)), SubmitResult::kStopped);
}

TEST(ServeEngine, LatencyHistogramFeedsPercentiles) {
  ModelRegistry registry;
  registry.publish(make_model(false));
  EngineConfig config;
  config.workers = 1;
  ScoringEngine engine(registry, config, nullptr);
  for (std::uint64_t i = 0; i < 500; ++i) {
    engine.submit(request_at_origin(i));
  }
  engine.drain();
  engine.stop();
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, 500u);
  std::uint64_t histogram_total = 0;
  for (std::uint64_t c : metrics.latency_histogram) histogram_total += c;
  EXPECT_EQ(histogram_total, 500u);
  EXPECT_GT(metrics.p99_micros(), 0.0);
  EXPECT_LE(metrics.p50_micros(), metrics.p95_micros());
  EXPECT_LE(metrics.p95_micros(), metrics.p99_micros());
  // A 2-feature toy model on an idle box sits far inside the paper's
  // 100 ms budget.
  EXPECT_TRUE(metrics.within_budget());
  EXPECT_FALSE(metrics.summary().empty());
}

// ------------------------------ inline scoring ------------------------------

TEST(ServeInline, ScoresMatchDirectModelCallsWithoutTheQueue) {
  ModelRegistry registry;
  registry.publish(make_model(false));
  const ModelSnapshot snapshot = registry.current();
  std::atomic<int> callbacks{0};
  EngineConfig config;
  config.workers = 1;
  config.cache_capacity = 64;
  ScoringEngine engine(registry, config,
                       [&](const ScoreResponse&) { callbacks.fetch_add(1); });

  std::vector<ScoreRequest> requests;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ScoreRequest request;
    request.id = 100 + i;
    request.features = i % 3 == 0 ? std::vector<std::int32_t>{9, 11}
                                  : std::vector<std::int32_t>{1, 0};
    request.claimed = i % 2 == 0 ? kChrome100 : kFirefox100;
    requests.push_back(request);
  }
  std::vector<ScoreResponse> responses(requests.size());
  ScoreScratch scratch;
  // Twice: the second span is answered from the cache the first filled.
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(engine.score_now(requests, responses, scratch),
              SubmitResult::kAdmitted);
    core::ScoringScratch direct;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ScoreResponse& response = responses[i];
      EXPECT_EQ(response.id, requests[i].id);
      EXPECT_EQ(response.status, ResponseStatus::kScored);
      EXPECT_EQ(response.model_version, 1u);
      EXPECT_EQ(response.cached, round == 1);
      const core::Detection expected = snapshot.model->score(
          std::span<const std::int32_t>(requests[i].features),
          requests[i].claimed, direct);
      EXPECT_EQ(response.detection.predicted_cluster,
                expected.predicted_cluster);
      EXPECT_EQ(response.detection.expected_cluster, expected.expected_cluster);
      EXPECT_EQ(response.detection.flagged, expected.flagged);
      EXPECT_EQ(response.detection.risk_factor, expected.risk_factor);
    }
  }
  engine.drain();  // inline calls are outside drain()'s accounting
  EXPECT_EQ(callbacks.load(), 0);
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, 2 * requests.size());
  EXPECT_EQ(metrics.cached, requests.size());
  EXPECT_EQ(metrics.batches, 0u);  // no worker drained anything
  engine.stop();
}

TEST(ServeInline, RefusesWithoutModelUnlessDegradedAndWhenStopped) {
  ModelRegistry registry;
  ScoreScratch scratch;
  ScoreRequest request = request_at_origin(5);
  ScoreResponse response;
  response.id = 99;  // a refusal must leave it untouched
  {
    EngineConfig config;
    config.workers = 1;
    ScoringEngine engine(registry, config, nullptr);
    EXPECT_EQ(engine.score_now({&request, 1}, {&response, 1}, scratch),
              SubmitResult::kRejected);
    EXPECT_EQ(response.id, 99u);
    EXPECT_EQ(engine.metrics().scored + engine.metrics().degraded, 0u);
  }
  EngineConfig config;
  config.workers = 1;
  config.degrade_without_model = true;
  ScoringEngine engine(registry, config, nullptr);
  ASSERT_EQ(engine.score_now({&request, 1}, {&response, 1}, scratch),
            SubmitResult::kAdmitted);
  EXPECT_EQ(response.id, 5u);
  EXPECT_EQ(response.status, ResponseStatus::kDegraded);
  EXPECT_EQ(response.model_version, 0u);
  EXPECT_EQ(engine.metrics().degraded, 1u);
  engine.stop();
  EXPECT_EQ(engine.score_now({&request, 1}, {&response, 1}, scratch),
            SubmitResult::kStopped);
}

// "Allocation-free steady state" as a gate: after warm-up, inline calls
// — cache hits and kernel-scored misses, with metrics, trace, audit and
// cache insert all on — allocate nothing.  The request and scratch are
// reused exactly as net::ScoreServer's handler threads reuse theirs.
TEST(ServeInline, SteadyStateIsAllocationFree) {
  if (!obs::prof::alloc_hook_linked()) {
    GTEST_SKIP() << "bp_prof_alloc not linked into this binary "
                    "(sanitizer build compiles the hook out)";
  }
  ModelRegistry registry;
  registry.publish(make_model(false));
  obs::TraceSink trace({.capacity = 256, .sample_rate = 1.0});
  obs::AuditTrail audit({.capacity = 256, .unflagged_sample_rate = 1.0});
  EngineConfig config;
  config.workers = 1;
  config.cache_capacity = 1024;
  config.trace = &trace;
  config.audit = &audit;
  ScoringEngine engine(registry, config, nullptr);

  thread_local ScoreScratch scratch;
  ScoreRequest request = request_at_origin(0);
  ScoreResponse response;
  // Even calls repeat one cached fingerprint; odd calls bring a fresh
  // one, so the kernel and the cache insert run too.
  std::int32_t fresh = 1;
  const auto call = [&](std::uint64_t i) {
    request.id = i;
    request.features[0] = i % 2 == 0 ? 0 : fresh++;
    return engine.score_now({&request, 1}, {&response, 1}, scratch);
  };
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_EQ(call(i), SubmitResult::kAdmitted);
  }
  constexpr std::uint64_t kCalls = 1000;
  std::uint64_t hits = 0;
  const obs::prof::AllocCounts before = obs::prof::alloc_counts();
  obs::prof::set_alloc_counting(true);
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    if (call(i) != SubmitResult::kAdmitted) break;
    hits += response.cached ? 1 : 0;
  }
  obs::prof::set_alloc_counting(false);
  const obs::prof::AllocCounts after = obs::prof::alloc_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  // Both paths ran (a fresh key can evict the hot one from its
  // direct-mapped slot, so the split need not be exactly half).
  EXPECT_GT(hits, 0u);
  EXPECT_LE(hits, kCalls / 2);
  EXPECT_EQ(engine.metrics().scored, 64 + kCalls);
  engine.stop();
}

}  // namespace
}  // namespace bp::serve
