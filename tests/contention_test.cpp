// Contention attribution (src/obs/prof/contention.h) and its three
// wired sites: BoundedQueue block time, ModelRegistry swap stalls, and
// VerdictCache insert CAS losses.
//
// The cache test pins down an exact invariant instead of "some events
// happened": every insert() call either lands (inserts_total moves) or
// records a CAS-loss event, so across any concurrent hammer
//   events_delta == attempts - inserts_delta
// holds exactly.  A miscounted loser path breaks the equality.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram_layout.h"
#include "obs/prof/contention.h"
#include "serve/bounded_queue.h"
#include "serve/verdict_cache.h"

namespace prof = bp::obs::prof;

namespace {

TEST(ContentionSite, BucketBoundaries) {
  // Block times land in the obs::hist bucket of their nanoseconds:
  // every edge of the bucket holding 1us, and clamped into the
  // open-ended bucket far past the last bound.
  prof::ContentionSite& site =
      prof::ContentionRegistry::instance().site("test.bucket_boundaries");
  const std::size_t b = bp::obs::hist::bucket(1'000);
  for (const std::uint64_t ns :
       {std::uint64_t{0}, bp::obs::hist::lower(b), std::uint64_t{1'000},
        bp::obs::hist::upper(b), bp::obs::hist::upper(b) + 1, UINT64_MAX}) {
    const std::size_t want = bp::obs::hist::bucket(ns);
    const std::uint64_t before = site.bucket(want);
    site.record_block(ns);
    EXPECT_EQ(site.bucket(want), before + 1) << ns;
  }
  EXPECT_EQ(site.bucket(b), 3u);  // lower(b), 1000 and upper(b)
  EXPECT_EQ(site.bucket(b + 1), 1u);
  EXPECT_EQ(site.bucket(bp::obs::hist::kBuckets - 1), 1u);
}

TEST(ObsHistogramContention, SubMicroAndLongBlocksLandWhereTheLayoutSays) {
  prof::ContentionSite& site =
      prof::ContentionRegistry::instance().site("test.layout_extremes");
  site.record_block(750);         // < 1us
  site.record_block(16'800'000);  // >= 16.8ms: past 2^24 ns
  EXPECT_EQ(site.bucket(bp::obs::hist::bucket(750)), 1u);
  EXPECT_EQ(site.bucket(bp::obs::hist::kBuckets - 1), 1u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bp::obs::hist::kBuckets; ++i) {
    total += site.bucket(i);
  }
  EXPECT_EQ(total, 2u);
  // /contentionz labels both buckets from the layout.
  const std::string rendered = prof::ContentionRegistry::instance().render();
  EXPECT_NE(rendered.find("<=" +
                          std::to_string(bp::obs::hist::upper(
                              bp::obs::hist::bucket(750))) +
                          "ns: 1"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find(">=16777216ns: "), std::string::npos) << rendered;
}

TEST(ContentionSite, RecordAccumulates) {
  prof::ContentionRegistry& registry = prof::ContentionRegistry::instance();
  prof::ContentionSite& site = registry.site("test.accumulate");
  const std::uint64_t events0 = site.events();
  const std::uint64_t blocks0 = site.blocks();
  const std::uint64_t ns0 = site.total_ns();
  site.record_event();
  site.record_block(5'000);  // 5us
  site.record_block(3'000'000);
  EXPECT_EQ(site.events(), events0 + 3);  // blocks are events too
  EXPECT_EQ(site.blocks(), blocks0 + 2);
  EXPECT_EQ(site.total_ns(), ns0 + 3'005'000);
}

TEST(ContentionRegistry, FindOrCreateIsStableByName) {
  prof::ContentionRegistry& registry = prof::ContentionRegistry::instance();
  prof::ContentionSite& a = registry.site("test.stable");
  prof::ContentionSite& b = registry.site("test.stable");
  EXPECT_EQ(&a, &b);
  a.record_event();
  const std::string rendered = registry.render();
  EXPECT_NE(rendered.find("site test.stable"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("contention sites:"), std::string::npos);
}

TEST(ContentionQueue, BlockedProducerAndIdleConsumerAreAttributed) {
  prof::ContentionRegistry& registry = prof::ContentionRegistry::instance();
  prof::ContentionSite& push_site = registry.site("test.queue.push");
  prof::ContentionSite& pop_site = registry.site("test.queue.pop");
  const std::uint64_t push_blocks0 = push_site.blocks();
  const std::uint64_t pop_blocks0 = pop_site.blocks();

  bp::serve::BoundedQueue<int> queue(1, bp::serve::OverflowPolicy::kBlock);
  queue.set_contention_sites(&push_site, &pop_site);

  ASSERT_EQ(queue.push(1), bp::serve::PushResult::kAccepted);
  std::thread producer([&] {
    // Queue is full: this push parks until the consumer drains.
    EXPECT_EQ(queue.push(2), bp::serve::PushResult::kAccepted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<int> out;
  ASSERT_EQ(queue.pop_batch(out, 1), 1u);
  producer.join();
  EXPECT_GE(push_site.blocks(), push_blocks0 + 1);

  // Consumer side: pop on an empty queue parks until a push arrives.
  ASSERT_EQ(queue.pop_batch(out, 1), 1u);  // drain item 2 first
  std::thread consumer([&] {
    std::vector<int> got;
    EXPECT_EQ(queue.pop_batch(got, 1), 1u);
    EXPECT_EQ(got.front(), 3);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(queue.push(3), bp::serve::PushResult::kAccepted);
  consumer.join();
  EXPECT_GE(pop_site.blocks(), pop_blocks0 + 1);
}

TEST(ContentionCache, CasLossAccountingIsExact) {
  prof::ContentionRegistry& registry = prof::ContentionRegistry::instance();
  prof::ContentionSite& cas_site = registry.site("serve.cache.insert_cas");
  const std::uint64_t events0 = cas_site.events();

  bp::serve::VerdictCacheConfig config;
  config.capacity = 4;  // tiny: every key collides onto few slots
  bp::serve::VerdictCache cache(config);

  bp::core::Detection detection;
  detection.predicted_cluster = 3;
  detection.flagged = true;

  // Two distinct keys that map to the same slot (mask is capacity-1;
  // craft primaries congruent mod 4).
  bp::serve::VerdictCache::Key key_a{0x10, 0x1111};
  bp::serve::VerdictCache::Key key_b{0x20, 0x2222};

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::atomic<int> go{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) {}
      const auto key = (t % 2 == 0) ? key_a : key_b;
      for (int i = 0; i < kPerThread; ++i) {
        cache.insert(key, /*version=*/1, detection, /*stripe_hint=*/t);
      }
    });
  }
  for (auto& w : writers) w.join();

  const bp::serve::CacheStats stats = cache.stats();
  const std::uint64_t attempts =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  // Exactness: every attempt either inserted or recorded a loss.  The
  // cache was fresh, so its inserts counter IS the delta.
  EXPECT_EQ(cas_site.events() - events0, attempts - stats.inserts);
  EXPECT_GT(stats.inserts, 0u);
}

TEST(ContentionRegistry, RenderListsWiredServingSites) {
  // Constructing a VerdictCache resolves its site eagerly, so the
  // render names it even before any loss happens.
  bp::serve::VerdictCache cache;
  const std::string rendered =
      prof::ContentionRegistry::instance().render();
  EXPECT_NE(rendered.find("serve.cache.insert_cas"), std::string::npos)
      << rendered;
}

}  // namespace
