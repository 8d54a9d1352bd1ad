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
#include "util/fault.h"

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
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.queue_depth, 0u);
  EXPECT_GE(metrics.model_version, 1u);
  EXPECT_GT(metrics.batches, 0u);
}

// `engine.worker_stall` armed on every batch freezes the one worker for
// kInjectedWorkerStall per batch it picks up, so while a burst runs the
// queue buffers `capacity` requests and the worker takes at most one
// batch per stall begun; everything else must bounce synchronously.
TEST(ServeEngine, RejectPolicyRefusesOverloadSynchronously) {
  constexpr std::uint64_t kOffered = 100;
  const bp::util::ScopedFaults faults("engine.worker_stall:1.0:1");
  ModelRegistry registry;
  registry.publish(make_model(false));

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
  const auto begin = std::chrono::steady_clock::now();
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
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  const auto pickups =
      static_cast<std::uint64_t>(1 + elapsed / kInjectedWorkerStall);
  EXPECT_LE(admitted, config.queue_capacity + config.max_batch * pickups);
  EXPECT_GT(rejected, 0u);

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

// No model published: submit() refuses at once, as
// score_now() does, under either overflow policy — nothing is admitted
// to wait for a publish, so a kBlock producer never blocks and drain()
// has nothing to wait for.  The submits and the drain run on a helper
// thread; stop() releases it should either wait after all.
TEST(ServeEngine, SubmitWithoutModelIsRefusedAtOnce) {
  constexpr int kOffered = 100;
  for (const OverflowPolicy policy :
       {OverflowPolicy::kReject, OverflowPolicy::kBlock}) {
    SCOPED_TRACE(policy == OverflowPolicy::kReject ? "kReject" : "kBlock");
    ModelRegistry registry;
    EngineConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.overflow_policy = policy;
    std::atomic<int> callbacks{0};
    ScoringEngine engine(registry, config,
                         [&](const ScoreResponse&) { ++callbacks; });

    std::atomic<int> refused{0};
    std::atomic<bool> done{false};
    std::thread producer([&] {
      for (int i = 0; i < kOffered; ++i) {
        if (engine.submit(request_at_origin(static_cast<std::uint64_t>(i))) ==
            SubmitResult::kRejected) {
          ++refused;
        }
      }
      engine.drain();
      done.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(done.load()) << "submits and drain() took over 1 s";
    engine.stop();
    producer.join();

    EXPECT_EQ(refused.load(), kOffered);
    EXPECT_EQ(callbacks.load(), 0);
    EXPECT_EQ(engine.metrics().rejected, static_cast<std::uint64_t>(kOffered));
  }
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

TEST(ServeInline, RefusesWithoutModelAndWhenStopped) {
  ModelRegistry registry;
  ScoreScratch scratch;
  ScoreRequest request = request_at_origin(5);
  ScoreResponse response;
  response.id = 99;  // a refusal must leave it untouched
  EngineConfig config;
  config.workers = 1;
  ScoringEngine engine(registry, config, nullptr);
  EXPECT_EQ(engine.score_now({&request, 1}, {&response, 1}, scratch),
            SubmitResult::kRejected);
  EXPECT_EQ(response.id, 99u);
  EXPECT_EQ(engine.metrics().scored, 0u);
  EXPECT_EQ(engine.metrics().rejected, 1u);
  // Published, then stopped: a stopped engine refuses even with a model.
  registry.publish(make_model(false));
  engine.stop();
  EXPECT_EQ(engine.score_now({&request, 1}, {&response, 1}, scratch),
            SubmitResult::kStopped);
  EXPECT_EQ(response.id, 99u);
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

// The queued path's "allocation-free steady state" as a gate: submit()
// copies each request into a ring slot that kept its buffer, workers
// swap ready slots with their reused batch vectors, and nothing
// between submit() and the callback allocates.  (Before the ring, each
// queued verdict heap-copied its request and pushed it through
// std::deque chunks: at least one allocation per verdict.)  Same
// counting and skip rule as NetWireAllocBudget.
TEST(EngineQueueAllocBudget, QueuedVerdictsAllocateNothing) {
  if (!obs::prof::alloc_hook_linked()) {
    GTEST_SKIP() << "bp_prof_alloc not linked into this binary "
                    "(sanitizer build compiles the hook out)";
  }
  ModelRegistry registry;
  registry.publish(make_model(false));
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 64;
  config.overflow_policy = OverflowPolicy::kBlock;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint32_t> workers_seen{0};  // one bit per worker index
  ScoringEngine engine(registry, config, [&](const ScoreResponse& response) {
    if (response.status == ResponseStatus::kScored) {
      answered.fetch_add(1, std::memory_order_relaxed);
    }
    workers_seen.fetch_or(1u << response.worker, std::memory_order_relaxed);
  });
  const ScoreRequest request = request_at_origin(1);

  // Warm-up: at least two full laps of the queue, so every ring slot
  // has taken a request, and more laps until every worker has answered.
  // A worker's first pop_batch grows its batch vector to max_batch
  // request copies, so a worker whose first batch fell inside the
  // counted window would allocate there.
  const std::uint32_t all_workers = (1u << config.workers) - 1;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::size_t warm = 0;
  for (int lap = 0; lap < 2 || workers_seen.load() != all_workers; ++lap) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "a worker never took a batch (seen mask " << workers_seen.load()
        << ")";
    for (std::size_t i = 0; i < engine.config().queue_capacity; ++i) {
      ASSERT_EQ(engine.submit(request), SubmitResult::kAdmitted);
    }
    warm += engine.config().queue_capacity;
    engine.drain();
  }
  ASSERT_EQ(answered.load(), warm);

  constexpr std::size_t kCounted = 10'000;
  const obs::prof::AllocCounts before = obs::prof::alloc_counts();
  obs::prof::set_alloc_counting(true);
  for (std::size_t i = 0; i < kCounted; ++i) {
    if (engine.submit(request) != SubmitResult::kAdmitted) break;
  }
  engine.drain();
  obs::prof::set_alloc_counting(false);
  const obs::prof::AllocCounts after = obs::prof::alloc_counts();

  EXPECT_EQ(answered.load(), warm + kCounted);
  const std::uint64_t allocations = after.allocations - before.allocations;
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / kCounted
      << " allocations per queued verdict";
  engine.stop();
}

}  // namespace
}  // namespace bp::serve
