// VerdictCache correctness: content addressing, the version-keyed
// invalidation protocol, the seqlock under concurrent hammering (run
// under TSan/ASan via scripts/tier1.sh), and the cache's integration
// into the ScoringEngine — synchronous submit-side hits, worker-side
// hits against the batch's snapshot version, hot-swap invalidation
// (no verdict from version K after K+1 publishes), metrics, tracing
// and the audit `cached` tag.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"
#include "serve/verdict_cache.h"
#include "wire_load.h"

namespace bp::serve {
namespace {

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100,
                                ua::Os::kWindows10};

core::Detection make_detection(std::uint64_t salt) {
  core::Detection d;
  d.predicted_cluster = salt % 11;
  if (salt % 3 != 0) d.expected_cluster = (salt + 1) % 11;
  d.flagged = (salt % 2) == 1;
  d.risk_factor = static_cast<int>(salt % 23);
  d.centroid_distance2 = static_cast<double>(salt) * 0.125 + 0.5;
  return d;
}

void expect_same_detection(const core::Detection& a,
                           const core::Detection& b) {
  EXPECT_EQ(a.predicted_cluster, b.predicted_cluster);
  EXPECT_EQ(a.expected_cluster, b.expected_cluster);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.risk_factor, b.risk_factor);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.centroid_distance2),
            std::bit_cast<std::uint64_t>(b.centroid_distance2));
}

// ----------------------------- keying -----------------------------

TEST(VerdictCacheKey, DeterministicAndContentSensitive) {
  const std::vector<std::int32_t> features{1, 2, 3, 4};
  const auto key = VerdictCache::key_of(features, kChrome100);
  const auto same = VerdictCache::key_of(features, kChrome100);
  EXPECT_EQ(key.primary, same.primary);
  EXPECT_EQ(key.check, same.check);
  EXPECT_NE(key.primary, 0u);  // 0 is the empty-slot sentinel

  const std::vector<std::int32_t> mutated{1, 2, 3, 5};
  const auto other_features = VerdictCache::key_of(mutated, kChrome100);
  EXPECT_NE(key.primary, other_features.primary);

  const auto other_ua = VerdictCache::key_of(features, kFirefox100);
  EXPECT_NE(key.primary, other_ua.primary);

  const ua::UserAgent chrome101{ua::Vendor::kChrome, 101, ua::Os::kWindows10};
  const auto other_version = VerdictCache::key_of(features, chrome101);
  EXPECT_NE(key.primary, other_version.primary);

  // Same words, different split: {1,2} vs {1,2,0} must not collide.
  const std::vector<std::int32_t> shorter{1, 2};
  const std::vector<std::int32_t> padded{1, 2, 0};
  EXPECT_NE(VerdictCache::key_of(shorter, kChrome100).primary,
            VerdictCache::key_of(padded, kChrome100).primary);
}

// --------------------------- slot protocol ---------------------------

TEST(VerdictCacheSlots, RoundTripsFullDetection) {
  VerdictCache cache({.capacity = 64});
  const auto key =
      VerdictCache::key_of(std::vector<std::int32_t>{7, 7}, kChrome100);
  const core::Detection stored = make_detection(41);
  cache.insert(key, /*version=*/3, stored);

  core::Detection out;
  ASSERT_TRUE(cache.lookup(key, 3, out));
  expect_same_detection(out, stored);

  // nullopt expected_cluster survives the packing too.
  core::Detection no_expected;
  no_expected.predicted_cluster = 5;
  no_expected.centroid_distance2 = -0.0;  // sign of zero must round-trip
  const auto key2 =
      VerdictCache::key_of(std::vector<std::int32_t>{9, 9}, kChrome100);
  cache.insert(key2, 3, no_expected);
  ASSERT_TRUE(cache.lookup(key2, 3, out));
  expect_same_detection(out, no_expected);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(VerdictCacheSlots, MissOnEmptyAndOnDifferentKey) {
  VerdictCache cache({.capacity = 64});
  const auto key =
      VerdictCache::key_of(std::vector<std::int32_t>{1}, kChrome100);
  core::Detection out;
  EXPECT_FALSE(cache.lookup(key, 1, out));

  // A colliding primary with a different check hash must miss, never
  // serve the wrong verdict.
  cache.insert(key, 1, make_detection(7));
  VerdictCache::Key wrong_check = key;
  wrong_check.check ^= 0xdeadbeefULL;
  EXPECT_FALSE(cache.lookup(wrong_check, 1, out));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(VerdictCacheSlots, VersionMismatchIsStaleMissBothDirections) {
  VerdictCache cache({.capacity = 64});
  const auto key =
      VerdictCache::key_of(std::vector<std::int32_t>{5, 5}, kChrome100);
  cache.insert(key, /*version=*/1, make_detection(1));

  core::Detection out;
  // Newer serving version: the entry predates the hot swap.
  EXPECT_FALSE(cache.lookup(key, 2, out));
  // Older serving version (rollback): a v2 entry must not serve v1.
  cache.insert(key, 2, make_detection(2));
  EXPECT_FALSE(cache.lookup(key, 1, out));

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stale, 2u);
  EXPECT_EQ(stats.misses, 2u);

  // Rescoring under the current version overwrites the stale entry and
  // restores hits.
  ASSERT_TRUE(cache.lookup(key, 2, out));
  expect_same_detection(out, make_detection(2));
}

TEST(VerdictCacheSlots, EvictionCountsOnlyLiveDisplacement) {
  VerdictCache cache({.capacity = 4});  // slot index = primary & 3
  const VerdictCache::Key a{.primary = 0x10, .check = 1};  // slot 0
  const VerdictCache::Key b{.primary = 0x20, .check = 2};  // slot 0 too
  cache.insert(a, 1, make_detection(1));
  cache.insert(b, 1, make_detection(2));  // displaces live same-version a
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Displacing a *stale* entry is reclamation, not eviction.
  cache.insert(a, 2, make_detection(3));
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Refreshing the same key in place is not an eviction either.
  cache.insert(a, 2, make_detection(4));
  EXPECT_EQ(cache.stats().evictions, 1u);

  core::Detection out;
  ASSERT_TRUE(cache.lookup(a, 2, out));
  expect_same_detection(out, make_detection(4));
}

TEST(VerdictCacheSlots, OccupancyTracksDistinctSlots) {
  VerdictCache cache({.capacity = 8});
  EXPECT_EQ(cache.capacity(), 8u);
  EXPECT_EQ(cache.stats().occupancy, 0u);
  cache.insert({.primary = 1, .check = 1}, 1, make_detection(1));
  cache.insert({.primary = 2, .check = 2}, 1, make_detection(2));
  EXPECT_EQ(cache.stats().occupancy, 2u);
  // Same slot again (same key, and then a colliding key): no growth.
  cache.insert({.primary = 1, .check = 1}, 2, make_detection(3));
  cache.insert({.primary = 9, .check = 9}, 1, make_detection(4));  // 9&7==1
  EXPECT_EQ(cache.stats().occupancy, 2u);
}

TEST(VerdictCacheSlots, CapacityRoundsUpToPowerOfTwo) {
  VerdictCache cache({.capacity = 100});
  EXPECT_EQ(cache.capacity(), 128u);
}

// The seqlock under fire: concurrent writers re-publishing versioned
// verdicts while readers verify that every hit is internally consistent
// — the detection a hit returns must be exactly the one some writer
// stored for that (key, version).  A torn read would surface as a
// mismatched field pair.  tier1.sh runs this under TSan and ASan.
TEST(VerdictCacheConcurrency, HammeredSlotsNeverTear) {
  VerdictCache cache({.capacity = 32});  // tiny: force slot sharing
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kKeys = 64;
  constexpr std::uint64_t kVersions = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};

  auto key_for = [](std::uint64_t i) {
    return VerdictCache::Key{.primary = (i + 1) * 0x9e3779b97f4a7c15ULL,
                             .check = (i + 1) * 0xc2b2ae3d27d4eb4fULL};
  };
  // The canonical detection for (key i, version v) — writers store it,
  // readers demand it.
  auto detection_for = [](std::uint64_t i, std::uint64_t v) {
    return make_detection(i * 131 + v * 17);
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t i = static_cast<std::uint64_t>(w);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t version = (i / kKeys) % kVersions + 1;
        cache.insert(key_for(i % kKeys), version,
                     detection_for(i % kKeys, version), w);
        ++i;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t i = static_cast<std::uint64_t>(r) * 7;
      core::Detection out;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = i % kKeys;
        const std::uint64_t version = i % kVersions + 1;
        if (cache.lookup(key_for(k), version, out, r + 8)) {
          const core::Detection want = detection_for(k, version);
          ASSERT_EQ(out.predicted_cluster, want.predicted_cluster);
          ASSERT_EQ(out.expected_cluster, want.expected_cluster);
          ASSERT_EQ(out.flagged, want.flagged);
          ASSERT_EQ(out.risk_factor, want.risk_factor);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out.centroid_distance2),
                    std::bit_cast<std::uint64_t>(want.centroid_distance2));
          hits.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  EXPECT_GT(hits.load(), 0u) << "hammer never hit — test is vacuous";
}

// ------------------------ engine integration ------------------------

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

struct Collected {
  std::mutex mutex;
  std::vector<ScoreResponse> responses;
  ScoringEngine::ResponseCallback callback() {
    return [this](const ScoreResponse& response) {
      std::lock_guard lock(mutex);
      responses.push_back(response);
    };
  }
};

TEST(VerdictCacheEngine, RepeatSessionHitsAndMatchesFirstVerdict) {
  ModelRegistry registry;
  ASSERT_GT(registry.publish(make_model(false)), 0u);
  Collected collected;
  EngineConfig config;
  config.workers = 1;
  config.cache_capacity = 256;
  ScoringEngine engine(registry, config, collected.callback());

  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  engine.drain();  // first: a miss, scored by a worker, inserted
  ASSERT_EQ(engine.submit(request_at_origin(2)), SubmitResult::kAdmitted);
  engine.drain();
  engine.stop();

  ASSERT_EQ(collected.responses.size(), 2u);
  const auto& first = collected.responses[0];
  const auto& second = collected.responses[1];
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.status, ResponseStatus::kScored);
  EXPECT_EQ(second.model_version, first.model_version);
  expect_same_detection(second.detection, first.detection);

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, 2u);
  EXPECT_EQ(metrics.cached, 1u);
}

TEST(VerdictCacheEngine, SubmitSideHitAnswersSynchronously) {
  ModelRegistry registry;
  ASSERT_GT(registry.publish(make_model(false)), 0u);
  Collected collected;
  EngineConfig config;
  config.workers = 1;
  config.cache_capacity = 256;
  ScoringEngine engine(registry, config, collected.callback());

  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  engine.drain();
  // The repeat is answered on *this* thread before submit returns.
  ASSERT_EQ(engine.submit(request_at_origin(2)), SubmitResult::kAdmitted);
  {
    std::lock_guard lock(collected.mutex);
    ASSERT_EQ(collected.responses.size(), 2u);
    EXPECT_TRUE(collected.responses[1].cached);
  }
  engine.stop();
}

TEST(VerdictCacheEngine, DisabledByDefaultAndStatsAreZero) {
  ModelRegistry registry;
  ASSERT_GT(registry.publish(make_model(false)), 0u);
  Collected collected;
  EngineConfig config;
  config.workers = 1;
  ScoringEngine engine(registry, config, collected.callback());
  EXPECT_EQ(engine.cache(), nullptr);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(engine.submit(request_at_origin(i)), SubmitResult::kAdmitted);
  }
  engine.drain();
  engine.stop();
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts + stats.capacity, 0u);
  EXPECT_EQ(engine.metrics().cached, 0u);
  for (const auto& response : collected.responses) {
    EXPECT_FALSE(response.cached);
  }
}

// Release-popularity traffic through the engine: 4000 requests drawn
// u^3 from 1000 unique live sessions, 2 workers, batch 64, a cache of
// bit_ceil(4 * 1000) slots.  The cached engine runs the stream twice
// (warm-up, then again) and must answer all 2N with a hit rate of at
// least 0.5; the same engine uncached answers all N of one pass.
TEST(VerdictCacheEngine, PopularityStreamHitsAtLeastHalfAndAnswersAll) {
  constexpr std::size_t kUnique = 1'000;
  constexpr std::size_t kRequests = 4'000;
  ModelRegistry registry;
  const core::Polygraph model = wire_load::train_production_model(6'000);
  const auto pool = wire_load::session_pool(model, kUnique, 0x5EF7E2024);
  ASSERT_GT(registry.publish(model), 0u);
  std::vector<ScoreRequest> stream;
  for (const std::size_t idx : wire_load::popularity_draw(kUnique, kRequests)) {
    ScoreRequest request;
    request.id = stream.size();
    request.features = pool[idx].features;
    request.claimed = pool[idx].claimed;
    stream.push_back(std::move(request));
  }
  const auto run = [&](std::size_t cache_capacity, int passes) {
    EngineConfig config;
    config.workers = 2;
    config.max_batch = 64;
    config.cache_capacity = cache_capacity;
    ScoringEngine engine(registry, config, nullptr);
    for (int pass = 0; pass < passes; ++pass) {
      for (const ScoreRequest& request : stream) engine.submit(request);
      engine.drain();
    }
    engine.stop();
    return std::make_pair(engine.metrics().scored, engine.cache_stats());
  };
  EXPECT_EQ(run(0, 1).first, kRequests);
  const auto [cached_scored, cache] = run(std::bit_ceil(4 * kUnique), 2);
  EXPECT_EQ(cached_scored, 2 * kRequests);
  EXPECT_GE(cache.hit_rate(), 0.5)
      << cache.hits << " hits, " << cache.misses << " misses";
}

TEST(VerdictCacheEngine, HotSwapInvalidatesAtomically) {
  // The invalidation contract end to end: verdicts cached under v1 must
  // never be served once v2 is published — model B flips the flag for
  // the same session, so a stale replay would be *visible*, not just
  // wrong-version.
  ModelRegistry registry;
  ASSERT_GT(registry.publish(make_model(false)), 0u);  // v1: clean
  Collected collected;
  EngineConfig config;
  config.workers = 1;
  config.cache_capacity = 256;
  ScoringEngine engine(registry, config, collected.callback());

  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  engine.drain();
  ASSERT_EQ(engine.submit(request_at_origin(2)), SubmitResult::kAdmitted);
  engine.drain();  // cached v1 replay

  ASSERT_EQ(registry.publish(make_model(true)), 2u);  // v2: flags it
  ASSERT_EQ(engine.submit(request_at_origin(3)), SubmitResult::kAdmitted);
  engine.drain();  // stale entry -> rescored under v2
  ASSERT_EQ(engine.submit(request_at_origin(4)), SubmitResult::kAdmitted);
  engine.drain();  // cached v2 replay
  engine.stop();

  ASSERT_EQ(collected.responses.size(), 4u);
  for (const auto& response : collected.responses) {
    SCOPED_TRACE(response.id);
    const bool after_swap = response.id >= 3;
    EXPECT_EQ(response.model_version, after_swap ? 2u : 1u);
    EXPECT_EQ(response.detection.flagged, after_swap);
    EXPECT_EQ(response.cached, response.id == 2 || response.id == 4);
  }
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_GE(stats.stale, 1u);  // the post-swap miss saw the v1 entry
}

TEST(VerdictCacheEngine, NoStaleVerdictUnderConcurrentSwaps) {
  // Concurrent load against repeated hot swaps between models whose
  // verdicts differ: every response's flag must match the version it
  // names — a verdict from version K served after observing K+1 in the
  // same response would trip the parity check.
  ModelRegistry registry;
  ASSERT_GT(registry.publish(make_model(false)), 0u);
  std::atomic<std::uint64_t> parity_errors{0};
  EngineConfig config;
  config.workers = 2;
  config.cache_capacity = 128;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& response) {
    if (response.status != ResponseStatus::kScored) return;
    // Table A (odd versions) leaves origin/Chrome clean; table B (even
    // versions) flags it.
    const bool expect_flag = response.model_version % 2 == 0;
    if (response.detection.flagged != expect_flag) {
      parity_errors.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    bool swapped = true;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.publish(make_model(swapped));
      swapped = !swapped;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::uint64_t id = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_NE(engine.submit(request_at_origin(++id)), SubmitResult::kStopped);
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  engine.drain();
  engine.stop();

  EXPECT_EQ(parity_errors.load(), 0u);
  EXPECT_GT(engine.cache_stats().hits, 0u) << "soak never hit the cache";
}

TEST(VerdictCacheEngine, CachedResponsesTraceAndAuditWithTag) {
  ModelRegistry registry;
  ASSERT_GT(registry.publish(make_model(true)), 0u);  // flags origin/Chrome
  obs::TraceSink trace;
  obs::AuditTrail audit;
  Collected collected;
  EngineConfig config;
  config.workers = 1;
  config.cache_capacity = 256;
  config.trace = &trace;
  config.audit = &audit;
  ScoringEngine engine(registry, config, collected.callback());

  ASSERT_EQ(engine.submit(request_at_origin(10)), SubmitResult::kAdmitted);
  engine.drain();
  ASSERT_EQ(engine.submit(request_at_origin(11)), SubmitResult::kAdmitted);
  engine.drain();
  engine.stop();

  bool saw_cache_hit_span = false;
  for (const auto& event : trace.events()) {
    if (event.trace_id == 11 && event.span_id == 3) {
      EXPECT_STREQ(event.name, "cache_hit");
      saw_cache_hit_span = true;
    }
  }
  EXPECT_TRUE(saw_cache_hit_span);

  const auto records = audit.records();
  ASSERT_EQ(records.size(), 2u);  // both flagged -> both audited
  EXPECT_FALSE(records[0].cached());
  EXPECT_TRUE(records[1].cached());
  // Replay stays exact: identical evidence under the same version.
  EXPECT_EQ(records[0].model_version, records[1].model_version);
  EXPECT_EQ(records[0].predicted_cluster, records[1].predicted_cluster);
  EXPECT_EQ(records[0].expected_cluster, records[1].expected_cluster);
  EXPECT_EQ(records[0].risk_factor, records[1].risk_factor);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(records[0].centroid_distance2),
            std::bit_cast<std::uint64_t>(records[1].centroid_distance2));
  EXPECT_TRUE(records[0].flagged() && records[1].flagged());
}

}  // namespace
}  // namespace bp::serve
