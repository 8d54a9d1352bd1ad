// Chaos soak for the fault-tolerant model lifecycle.
//
// Two layers:
//   1. Determinism: the same fault spec (BP_FAULTS grammar) replays
//      the exact same injected-fault trace over a fixed single-threaded
//      lifecycle (save -> publish_from_file -> rollback), so a failing
//      soak can be re-run under a debugger with identical faults.
//   2. The soak proper: producers hammer a live engine while a
//      lifecycle thread saves/publishes/rolls back models with write,
//      torn-write, read and validation faults armed.  Invariants:
//      every admitted request gets exactly one response, every scored
//      response is attributable to a model that really was published
//      (never a corrupt one), and after the faults clear the system
//      recovers to a freshly published good model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"
#include "util/fault.h"

namespace bp::serve {
namespace {

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100, ua::Os::kWindows10};

// Model A (swapped=false) expects Chrome 100 at cluster 0 == origin:
// a session at (0,0) claiming Chrome 100 is clean under A, flagged
// under B.  The flag bit of a scored response therefore reveals which
// table the scoring model carried.
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

class ChaosSoakTest : public ::testing::Test {
 protected:
  void SetUp() override { bp::util::FaultRegistry::instance().disarm_all(); }
  void TearDown() override { bp::util::FaultRegistry::instance().disarm_all(); }
};

// A fixed, fault-dependent but otherwise deterministic model lifecycle.
// Returns an event log ('S'/'s' save ok/failed, 'P'/'p' publish
// ok/refused, 'R'/'r' rollback ok/no-op) so the replay check covers
// observable behaviour as well as the fault trace.
std::string run_lifecycle(const std::string& path) {
  ModelRegistry registry;
  std::string log;
  std::remove(path.c_str());
  std::remove((path + ".quarantined").c_str());
  for (int i = 0; i < 80; ++i) {
    const bool saved = core::save_model(make_model(i % 2 == 1), path);
    log += saved ? 'S' : 's';
    if (!saved) continue;
    const auto report = registry.publish_from_file(path);
    log += report ? 'P' : 'p';
    if (!report && i % 5 == 0) {
      log += registry.rollback() != 0 ? 'R' : 'r';
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".quarantined").c_str());
  return log;
}

TEST_F(ChaosSoakTest, SameFaultSpecReplaysSameTraceAndBehaviour) {
  auto& faults = bp::util::FaultRegistry::instance();
  ASSERT_TRUE(faults.arm_from_spec(
      "model_io.write:0.3:7,model_io.torn_write:0.25:11,"
      "model_io.read:0.15:13,registry.publish_validate:0.2:17"));

  const std::string first_log = run_lifecycle("/tmp/bp_chaos_replay.model");
  const auto first_trace = faults.trace();
  ASSERT_GT(faults.total_fires(), 0u);  // chaos actually happened

  faults.reset_counters();  // same armed points, fresh indices
  const std::string second_log = run_lifecycle("/tmp/bp_chaos_replay.model");
  const auto second_trace = faults.trace();

  EXPECT_EQ(first_trace, second_trace);
  EXPECT_EQ(first_log, second_log);

  // A different seed produces a different run (the spec matters).
  faults.disarm_all();
  ASSERT_TRUE(faults.arm_from_spec(
      "model_io.write:0.3:8,model_io.torn_write:0.25:12,"
      "model_io.read:0.15:14,registry.publish_validate:0.2:18"));
  const std::string reseeded_log = run_lifecycle("/tmp/bp_chaos_replay.model");
  EXPECT_NE(faults.trace(), first_trace);
  (void)reseeded_log;
}

// The soak proper, parameterized on the verdict cache: with
// `cache_capacity` > 0 most repeat sessions are answered from the
// cache, and the flag-parity proof then covers the cache's invalidation
// protocol too — a cached verdict carrying version v with a flag that
// does not match mirror[v] (version v's table) would mean a verdict
// from one version was replayed under another.
void run_soak(std::size_t cache_capacity, const std::string& path) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 1'500;
  constexpr int kTotal = kProducers * kPerProducer;
  constexpr int kPostRecovery = 200;  // scored after the final publish
  constexpr int kLifecycleIterations = 60;
  std::remove(path.c_str());
  std::remove((path + ".quarantined").c_str());

  ModelRegistry registry;
  ASSERT_EQ(registry.publish(make_model(false)), 1u);  // last-good v1
  // Single lifecycle thread == single publisher, so this mirror of
  // swapped-ness per version is exact: mirror[v] is the table the model
  // at version v carried.  Index 0 unused.
  std::vector<bool> mirror = {false, false};

  auto& faults = bp::util::FaultRegistry::instance();
  ASSERT_TRUE(faults.arm_from_spec(
      "model_io.write:0.2:21,model_io.torn_write:0.25:22,"
      "model_io.read:0.1:23,registry.publish_validate:0.15:24,"
      "engine.worker_stall:0.05:25"));

  // +1 slot for the final guaranteed-cache-hit probe request.
  constexpr int kIds = kTotal + kPostRecovery + 1;
  std::vector<std::atomic<int>> response_count(kIds);
  std::vector<std::atomic<std::uint64_t>> response_version(kIds);
  std::vector<std::atomic<int>> response_flagged(kIds);
  std::vector<std::atomic<int>> response_status(kIds);
  std::vector<std::atomic<int>> response_cached(kIds);
  for (int i = 0; i < kIds; ++i) {
    response_count[i].store(0);
    response_version[i].store(0);
    response_flagged[i].store(0);
    response_status[i].store(-1);
    response_cached[i].store(0);
  }

  EngineConfig config;
  config.workers = 3;
  config.queue_capacity = 256;
  config.max_batch = 16;
  config.overflow_policy = OverflowPolicy::kBlock;
  config.cache_capacity = cache_capacity;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    response_count[r.id].fetch_add(1, std::memory_order_relaxed);
    response_version[r.id].store(r.model_version, std::memory_order_relaxed);
    response_flagged[r.id].store(r.detection.flagged ? 1 : 0,
                                 std::memory_order_relaxed);
    response_status[r.id].store(static_cast<int>(r.status),
                                std::memory_order_relaxed);
    response_cached[r.id].store(r.cached ? 1 : 0, std::memory_order_relaxed);
  });

  std::uint64_t lifecycle_failures = 0;
  std::thread lifecycle([&] {
    for (int i = 0; i < kLifecycleIterations; ++i) {
      const bool swapped = i % 2 == 1;
      if (core::save_model(make_model(swapped), path)) {
        const auto report = registry.publish_from_file(path);
        if (report) {
          ASSERT_EQ(report.version, mirror.size());
          mirror.push_back(swapped);
        } else {
          ++lifecycle_failures;
          if (i % 7 == 0) {
            const std::uint64_t rolled = registry.rollback();
            if (rolled != 0) {
              ASSERT_EQ(rolled, mirror.size());
              mirror.push_back(mirror[mirror.size() - 2]);
            }
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ScoreRequest request;
        request.id = static_cast<std::uint64_t>(p) * kPerProducer + i;
        request.features = {0, 0};
        request.claimed = kChrome100;
        ASSERT_EQ(engine.submit(std::move(request)), SubmitResult::kAdmitted);
      }
    });
  }
  for (auto& t : producers) t.join();
  lifecycle.join();
  engine.drain();
  faults.disarm_all();

  // --- zero lost responses: every admitted id answered exactly once ---
  for (int id = 0; id < kTotal; ++id) {
    ASSERT_EQ(response_count[id].load(), 1) << "id " << id;
    ASSERT_EQ(response_status[id].load(),
              static_cast<int>(ResponseStatus::kScored))
        << "id " << id;
  }
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, static_cast<std::uint64_t>(kTotal));

  // --- never a corrupt model: every response's version was really ---
  // --- published, and its flag matches that version's table        ---
  const std::uint64_t last_version = mirror.size() - 1;
  EXPECT_EQ(registry.version(), last_version);
  for (int id = 0; id < kTotal; ++id) {
    const std::uint64_t v = response_version[id].load();
    ASSERT_GE(v, 1u) << "id " << id;
    ASSERT_LE(v, last_version) << "id " << id;
    EXPECT_EQ(response_flagged[id].load(), mirror[v] ? 1 : 0)
        << "id " << id << " scored by version " << v;
  }

  // Refused publishes were counted, and every refusal left the serving
  // snapshot intact (proved by the attribution loop above).
  EXPECT_EQ(registry.publish_failures(), lifecycle_failures);

  // --- recovery: with faults cleared, a good model publishes and ---
  // --- the registry serves it                                    ---
  ASSERT_TRUE(core::save_model(make_model(false), path));
  const auto recovered = registry.publish_from_file(path);
  ASSERT_TRUE(recovered);
  EXPECT_EQ(recovered.version, last_version + 1);
  const ModelSnapshot serving = registry.current();
  ASSERT_TRUE(serving);
  EXPECT_EQ(serving.version, last_version + 1);
  core::ScoringScratch scratch;
  const std::vector<std::int32_t> origin{0, 0};
  EXPECT_FALSE(serving.model
                   ->score(std::span<const std::int32_t>(origin), kChrome100,
                           scratch)
                   .flagged);

  // --- no verdict from version K after K+1 publishes: everything ---
  // --- scored after the final publish carries the final version  ---
  // The engine is still live and (in the cached variant) its cache is
  // full of entries stamped with soak-era versions <= last_version.
  // Every one of those entries is now stale; a hit on any of them here
  // would surface as a response with an old model_version or (worse)
  // model B's flag from a model-A serving table.
  for (int i = 0; i < kPostRecovery; ++i) {
    ScoreRequest request;
    request.id = static_cast<std::uint64_t>(kTotal + i);
    request.features = {0, 0};
    request.claimed = kChrome100;
    ASSERT_EQ(engine.submit(std::move(request)), SubmitResult::kAdmitted);
  }
  engine.drain();
  for (int id = kTotal; id < kTotal + kPostRecovery; ++id) {
    ASSERT_EQ(response_count[id].load(), 1) << "id " << id;
    ASSERT_EQ(response_status[id].load(),
              static_cast<int>(ResponseStatus::kScored))
        << "id " << id;
    EXPECT_EQ(response_version[id].load(), last_version + 1) << "id " << id;
    EXPECT_EQ(response_flagged[id].load(), 0) << "id " << id;
  }

  if (cache_capacity > 0) {
    // drain() returned after a worker scored-and-inserted this exact
    // key at last_version + 1, so one more submit is a guaranteed
    // submit-side hit — and it must replay the *current* version.
    ScoreRequest probe;
    probe.id = static_cast<std::uint64_t>(kTotal + kPostRecovery);
    probe.features = {0, 0};
    probe.claimed = kChrome100;
    ASSERT_EQ(engine.submit(std::move(probe)), SubmitResult::kAdmitted);
    const int probe_id = kTotal + kPostRecovery;
    ASSERT_EQ(response_count[probe_id].load(), 1);
    EXPECT_EQ(response_cached[probe_id].load(), 1);
    EXPECT_EQ(response_version[probe_id].load(), last_version + 1);
    EXPECT_EQ(response_flagged[probe_id].load(), 0);

    // The soak exercised the cache for real: entries were inserted,
    // replayed, and invalidated by hot swaps (at minimum the recovery
    // publish stales every soak-era entry for this key).
    const CacheStats stats = engine.cache_stats();
    EXPECT_GT(stats.inserts, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.stale, 0u);
  } else {
    const CacheStats stats = engine.cache_stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
    for (int id = 0; id < kIds; ++id) {
      ASSERT_EQ(response_cached[id].load(), 0) << "id " << id;
    }
  }

  std::remove(path.c_str());
  std::remove((path + ".quarantined").c_str());
}

TEST_F(ChaosSoakTest, SoakLosesNothingServesNoCorruptModelAndRecovers) {
  run_soak(/*cache_capacity=*/0, "/tmp/bp_chaos_soak.model");
}

// Same soak with the verdict cache hot: flag parity per version now
// proves the cache's version-keyed invalidation — a swap must stale
// every prior entry atomically, and no verdict minted under version K
// may be replayed once K+1 is published.
TEST_F(ChaosSoakTest, CachedSoakServesNoStaleVerdictAcrossSwaps) {
  run_soak(/*cache_capacity=*/512, "/tmp/bp_chaos_soak_cached.model");
}

}  // namespace
}  // namespace bp::serve
