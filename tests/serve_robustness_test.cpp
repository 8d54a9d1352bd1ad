// Robustness tests for the scoring engine's failure posture: refusal
// before the first publish, an injected worker stall, and the stop()/drain()
// admission race — an admitted request must never be dropped without a
// response.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/model_registry.h"
#include "serve/scoring_engine.h"
#include "util/fault.h"

namespace bp::serve {
namespace {

using std::chrono::milliseconds;

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100, ua::Os::kWindows10};

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

ScoreRequest request_at_origin(std::uint64_t id,
                               ua::UserAgent claimed = kChrome100) {
  ScoreRequest request;
  request.id = id;
  request.features = {0, 0};
  request.claimed = claimed;
  return request;
}

// ---------------------- before the first publish ----------------------

// Nothing waits for a publish: a request submitted before the first
// one is refused at once, and the first publish opens admission for
// every request after it (the registry never goes back to empty).
TEST(ServeRobustness, FirstPublishOpensAdmission) {
  ModelRegistry registry;
  std::atomic<std::uint64_t> responses{0}, scored{0};
  EngineConfig config;
  config.workers = 1;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    ++responses;
    if (r.status == ResponseStatus::kScored) ++scored;
  });
  EXPECT_EQ(engine.submit(request_at_origin(0)), SubmitResult::kRejected);
  registry.publish(make_model(false));
  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  engine.drain();
  EXPECT_EQ(responses.load(), 1u);
  EXPECT_EQ(scored.load(), 1u);
  EXPECT_EQ(engine.metrics().rejected, 1u);
}

// ----------------------- injected worker stall -----------------------

// `engine.worker_stall` freezes a worker for kInjectedWorkerStall once
// per batch.  A stalled worker is slow, never lossy: with the point
// armed on every batch of one, each request is still answered kScored
// exactly once, and drain() has waited out one stall per request.
TEST(ServeRobustness, InjectedWorkerStallDelaysButLosesNothing) {
  constexpr std::uint64_t kRequests = 5;
  const bp::util::ScopedFaults faults("engine.worker_stall:1.0:1");

  ModelRegistry registry;
  registry.publish(make_model(false));
  EngineConfig config;
  config.workers = 1;
  config.max_batch = 1;
  std::mutex mutex;
  std::vector<std::uint64_t> answers(kRequests, 0);
  std::atomic<std::uint64_t> unscored{0};
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    if (r.status != ResponseStatus::kScored || r.id >= kRequests) {
      ++unscored;
      return;
    }
    std::lock_guard lock(mutex);
    ++answers[r.id];
  });

  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    ASSERT_EQ(engine.submit(request_at_origin(id)), SubmitResult::kAdmitted);
  }
  engine.drain();
  const auto elapsed = std::chrono::steady_clock::now() - begin;

  EXPECT_EQ(unscored.load(), 0u);
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    EXPECT_EQ(answers[id], 1u) << "request " << id;
  }
  EXPECT_GE(elapsed, kRequests * kInjectedWorkerStall);
}

// ------------------------ stop()/drain() race ------------------------

// The satellite pin: a request admitted concurrently with stop() (or
// whose push is refused while a drain() waits) can never be dropped
// without a response, and drain() can never hang on a retracted
// admission.  Producers hammer submit() while one thread stops the
// engine and another repeatedly drains; afterwards every admitted id
// must have exactly one response and non-admitted ids none.
TEST(ServeRobustness, StopDrainStressLosesNoAdmittedRequest) {
  constexpr int kIterations = 12;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;

  for (int iteration = 0; iteration < kIterations; ++iteration) {
    ModelRegistry registry;
    registry.publish(make_model(false));

    std::vector<std::atomic<int>> response_count(kProducers * kPerProducer);
    for (auto& c : response_count) c.store(0);

    EngineConfig config;
    config.workers = 2;
    config.queue_capacity = 8;  // small, so kRejected happens constantly
    config.max_batch = 4;
    config.overflow_policy = OverflowPolicy::kReject;
    ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
      response_count[r.id].fetch_add(1, std::memory_order_relaxed);
    });

    std::vector<std::vector<std::uint64_t>> admitted_ids(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const std::uint64_t id =
              static_cast<std::uint64_t>(p) * kPerProducer + i;
          if (engine.submit(request_at_origin(id)) == SubmitResult::kAdmitted) {
            admitted_ids[p].push_back(id);
          }
        }
      });
    }
    // A drainer that races the rejections: without the admission
    // retraction notifying drain_cv_, this thread can hang forever on a
    // transiently inflated admitted_ count.
    std::thread drainer([&] {
      for (int i = 0; i < 20; ++i) engine.drain();
    });
    // Stop concurrently with active producers, at a different point in
    // the submission stream each iteration.
    std::thread stopper([&] {
      std::this_thread::sleep_for(
          std::chrono::microseconds(50 * (iteration + 1)));
      engine.stop();
    });

    for (auto& t : producers) t.join();
    stopper.join();
    drainer.join();
    engine.drain();  // must return immediately after stop()

    std::size_t admitted_total = 0;
    for (int p = 0; p < kProducers; ++p) admitted_total += admitted_ids[p].size();
    std::vector<bool> was_admitted(response_count.size(), false);
    for (const auto& ids : admitted_ids) {
      for (const std::uint64_t id : ids) was_admitted[id] = true;
    }
    std::size_t responded_total = 0;
    for (std::size_t id = 0; id < response_count.size(); ++id) {
      const int n = response_count[id].load();
      if (was_admitted[id]) {
        EXPECT_EQ(n, 1) << "iteration " << iteration << " id " << id;
      } else {
        EXPECT_EQ(n, 0) << "iteration " << iteration << " id " << id;
      }
      responded_total += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(responded_total, admitted_total) << "iteration " << iteration;
  }
}

// Same race under kBlock: producers block on a full queue until stop()
// closes it; the refused pushes must retract their admissions.
TEST(ServeRobustness, StopWhileProducersBlockOnFullQueue) {
  // The one worker stalls on every batch, so the queue stays full.
  const bp::util::ScopedFaults faults("engine.worker_stall:1.0:1");
  ModelRegistry registry;
  registry.publish(make_model(false));
  std::atomic<std::uint64_t> responses{0};
  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.overflow_policy = OverflowPolicy::kBlock;
  ScoringEngine engine(registry, config,
                       [&](const ScoreResponse&) { ++responses; });

  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 50; ++i) {
        if (engine.submit(request_at_origin(
                static_cast<std::uint64_t>(p) * 50 + i)) ==
            SubmitResult::kAdmitted) {
          ++admitted;
        }
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(5));
  engine.stop();  // unblocks producers; queued requests are still scored
  for (auto& t : producers) t.join();
  engine.drain();
  EXPECT_LT(admitted.load(), 150u);  // some producer did block
  EXPECT_EQ(responses.load(), admitted.load());
}

}  // namespace
}  // namespace bp::serve
