// Profiling plane (src/obs/prof): tag scopes, thread registry, the
// sampler's deterministic surfaces, and the render formats.
//
// Determinism is the load-bearing property: the tag-tree render of a
// tag-only profile must be byte-identical across runs AND across pool
// thread counts, because the work decomposition (chunks of a fixed
// grain) is what is profiled, not the scheduling.  (The collapsed
// render's thread-name column is the one scheduling-dependent field:
// the pool's caller is a dispatch lane too, so a chunk may run on
// either a registered lane or the unregistered caller.)  The suite
// drives the sampler on manual ticks for exact counts, and separately
// leaves the real sampler (wall thread + SIGPROF) running over live
// threads to prove start/stop is race-free (the TSan tier exercises
// exactly this path).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/prof/prof.h"
#include "serve/model_registry.h"
#include "util/parallel.h"
#include "wire_load.h"

namespace prof = bp::obs::prof;

namespace {

TEST(ProfTagScope, NestsAndRestoresDepth) {
  prof::ThreadCtx& ctx = prof::this_thread_ctx();
  const std::uint32_t base = ctx.tag_depth.load(std::memory_order_relaxed);
  {
    PROF_SCOPE("outer");
    EXPECT_EQ(ctx.tag_depth.load(std::memory_order_relaxed), base + 1);
    EXPECT_STREQ(ctx.tags[base].load(std::memory_order_relaxed), "outer");
    {
      PROF_SCOPE("inner");
      EXPECT_EQ(ctx.tag_depth.load(std::memory_order_relaxed), base + 2);
      EXPECT_STREQ(ctx.tags[base + 1].load(std::memory_order_relaxed),
                   "inner");
    }
    EXPECT_EQ(ctx.tag_depth.load(std::memory_order_relaxed), base + 1);
  }
  EXPECT_EQ(ctx.tag_depth.load(std::memory_order_relaxed), base);
}

TEST(ProfTagScope, OverflowBeyondMaxDepthStillBalances) {
  prof::ThreadCtx& ctx = prof::this_thread_ctx();
  const std::uint32_t base = ctx.tag_depth.load(std::memory_order_relaxed);
  {
    // kMaxTagDepth + 2 nested scopes: the deepest two write no tag slot
    // but the depth counter still pushes/pops symmetrically.
    std::vector<std::unique_ptr<prof::TagScope>> scopes;
    for (std::size_t i = 0; i < prof::kMaxTagDepth + 2; ++i) {
      scopes.push_back(std::make_unique<prof::TagScope>("deep"));
    }
    EXPECT_EQ(ctx.tag_depth.load(std::memory_order_relaxed),
              base + prof::kMaxTagDepth + 2);
    scopes.clear();
  }
  EXPECT_EQ(ctx.tag_depth.load(std::memory_order_relaxed), base);
}

TEST(ProfThreadRegistry, RegisterUnregisterAccounting) {
  prof::ThreadRegistry& registry = prof::ThreadRegistry::instance();
  const std::size_t before = registry.size();
  std::atomic<bool> release{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      prof::ThreadHandle handle("test.registry", static_cast<std::uint32_t>(i));
      EXPECT_TRUE(handle.registered());
      ready.fetch_add(1);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (ready.load() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(registry.size(), before + 4);

  // The remote view the wall sampler takes: every registered thread has
  // a readable name.
  std::size_t named = 0;
  registry.for_each([&](prof::ThreadCtx& ctx, pthread_t) {
    if (ctx.name.load(std::memory_order_acquire) != nullptr) ++named;
  });
  EXPECT_GE(named, 4u);

  release.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.size(), before);
}

// Fixed work decomposition (grain 16 over 256 items), each chunk
// recording explicit samples under nested tags.  The sample table keys
// on (thread, kind, tags); the tag tree aggregates tags only, so its
// render must be byte-identical at every pool width.
std::pair<std::string, std::string> tagged_profile_at(std::size_t threads) {
  bp::util::set_parallel_threads(threads);
  prof::Profiler profiler;  // not started: no sampler, manual records
  bp::util::parallel_for(0, 256, 16, [&](std::size_t b, std::size_t e) {
    PROF_SCOPE("det.chunk");
    for (std::size_t i = b; i < e; ++i) {
      if (i % 2 == 0) {
        PROF_SCOPE("det.even");
        profiler.sample_here();
      } else {
        PROF_SCOPE("det.odd");
        profiler.sample_here();
      }
    }
  });
  const prof::ProfileSnapshot snap = profiler.snapshot();
  return {prof::Profiler::render_tag_tree_json(snap),
          prof::Profiler::render_collapsed(snap, /*symbolize=*/false)};
}

TEST(ProfDeterministicTagTree, ByteIdenticalAcrossThreadCounts) {
  const std::size_t restore = bp::util::parallel_threads();
  const auto [tree1, collapsed1] = tagged_profile_at(1);
  const auto [tree2, collapsed2] = tagged_profile_at(2);
  const auto [tree4, collapsed4] = tagged_profile_at(4);
  bp::util::set_parallel_threads(restore);

  EXPECT_EQ(tree1, tree2);
  EXPECT_EQ(tree1, tree4);
  // Tag-only samples from pool lanes all share the "pool.worker" thread
  // name (or the caller's), so even the collapsed render is stable...
  // except lane count changes which threads participate.  Aggregate
  // invariant instead: identical total weight.
  EXPECT_NE(tree1.find("\"det.even\", \"self\": 128"), std::string::npos)
      << tree1;
  EXPECT_NE(tree1.find("\"det.odd\", \"self\": 128"), std::string::npos)
      << tree1;
  EXPECT_NE(collapsed1.find("det.chunk;det.even 128"), std::string::npos)
      << collapsed1;

  // Run-to-run determinism at a fixed width: the tag tree is exact.
  // The collapsed render's leading thread-name column depends on which
  // lane (pool worker or the unregistered dispatching caller) claimed
  // each chunk, so compare it with that column folded away.
  const auto fold_threads = [](const std::string& collapsed) {
    std::map<std::string, std::uint64_t> by_stack;
    std::istringstream lines(collapsed);
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t semi = line.find(';');
      const std::size_t space = line.rfind(' ');
      if (semi == std::string::npos || space == std::string::npos) continue;
      by_stack[line.substr(semi + 1, space - semi - 1)] +=
          std::strtoull(line.c_str() + space + 1, nullptr, 10);
    }
    std::string out;
    for (const auto& [stack, count] : by_stack) {
      out += stack + ' ' + std::to_string(count) + '\n';
    }
    return out;
  };
  const auto [tree2b, collapsed2b] = tagged_profile_at(2);
  bp::util::set_parallel_threads(restore);
  EXPECT_EQ(tree2, tree2b);
  EXPECT_EQ(fold_threads(collapsed2), fold_threads(collapsed2b));
  EXPECT_EQ(fold_threads(collapsed1), fold_threads(collapsed2));
}

TEST(ProfSamplerInjectableClock, ManualTicksYieldExactCounts) {
  prof::Profiler profiler;  // never started: wall_tick() is the clock
  std::atomic<bool> release{false};
  std::atomic<int> ready{0};
  auto parked = [&](const char* name, const char* tag) {
    prof::ThreadHandle handle(name);
    prof::TagScope scope(tag);
    ready.fetch_add(1);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread a(parked, "test.parked_a", "stage.alpha");
  std::thread b(parked, "test.parked_b", "stage.beta");
  while (ready.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const prof::ProfileSnapshot before = profiler.snapshot();
  for (int i = 0; i < 7; ++i) profiler.wall_tick();
  const prof::ProfileSnapshot after = profiler.snapshot();
  release.store(true, std::memory_order_release);
  a.join();
  b.join();

  const prof::ProfileSnapshot window = prof::Profiler::diff(before, after);
  std::uint64_t alpha = 0;
  std::uint64_t beta = 0;
  for (const prof::Sample& s : window.samples) {
    if (s.n_tags == 1 && std::string(s.tags[0]) == "stage.alpha") {
      alpha += s.count;
      EXPECT_STREQ(s.thread_name, "test.parked_a");
      EXPECT_EQ(s.kind, prof::SampleKind::kWall);
    }
    if (s.n_tags == 1 && std::string(s.tags[0]) == "stage.beta") {
      beta += s.count;
    }
  }
  EXPECT_EQ(alpha, 7u);
  EXPECT_EQ(beta, 7u);
  EXPECT_EQ(window.dropped, 0u);
}

TEST(ProfSampler, DiffIsolatesTheWindow) {
  prof::Profiler profiler;
  {
    PROF_SCOPE("win.before");
    profiler.sample_here();
    profiler.sample_here();
  }
  const prof::ProfileSnapshot before = profiler.snapshot();
  {
    PROF_SCOPE("win.during");
    profiler.sample_here();
  }
  const prof::ProfileSnapshot window =
      prof::Profiler::diff(before, profiler.snapshot());
  EXPECT_EQ(window.total(), 1u);
  ASSERT_EQ(window.samples.size(), 1u);
  EXPECT_STREQ(window.samples[0].tags[0], "win.during");
}

TEST(ProfSampler, CollapsedRenderFormat) {
  prof::Profiler profiler;
  {
    PROF_SCOPE("fmt.outer");
    PROF_SCOPE("fmt.inner");
    profiler.sample_here();
    profiler.sample_here(prof::SampleKind::kCpu);
  }
  const std::string collapsed =
      prof::Profiler::render_collapsed(profiler.snapshot(),
                                       /*symbolize=*/false);
  // This thread is not registered, so samples carry the fallback name;
  // lines are `thread;(kind);tag;... count`, sorted, cpu before wall.
  EXPECT_EQ(collapsed,
            "(unregistered);(cpu);fmt.outer;fmt.inner 1\n"
            "(unregistered);(wall);fmt.outer;fmt.inner 1\n");
}

// The TSan tier's target: real sampler thread + SIGPROF machinery
// started and stopped repeatedly while tagged worker threads run hot.
// Asserts survival and monotone sample counters, not exact values.
TEST(ProfSamplerStartStop, RaceFreeWithLiveWorkers) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      prof::ThreadHandle handle("test.hot", static_cast<std::uint32_t>(i));
      volatile std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        PROF_SCOPE("hot.spin");
        for (int k = 0; k < 4096; ++k) {
          sink = sink + static_cast<std::uint64_t>(k);
        }
      }
    });
  }

  prof::Profiler profiler;
  for (int cycle = 0; cycle < 3; ++cycle) {
    prof::ProfilerConfig config;
    config.wall_period = std::chrono::microseconds(500);
    profiler.start(config);
    EXPECT_TRUE(profiler.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    profiler.stop();
    EXPECT_FALSE(profiler.running());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  EXPECT_GT(profiler.wall_samples(), 0u);
  const std::string collapsed =
      prof::Profiler::render_collapsed(profiler.snapshot());
  EXPECT_NE(collapsed.find("test.hot;"), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("hot.spin"), std::string::npos) << collapsed;
}

// Attribution under live wire load: the profiler wall-samples a
// ScoreServer answering 500 rps open loop for 2 s.  The plane stays
// lossless while sampled, the sampler sees serve-side threads (every
// thread registered under "serve."), and once the window holds 64 of
// their samples at least half carry a PROF_SCOPE tag.
//
// What this population is: the wire scores frames inline on
// "net.http_handler" threads, so the "serve." threads are the shards'
// engine workers, which never receive work from the wire and sit tagged
// serve.queue_wait: when this gate moved here from the net bench, all
// 1545 of 1545 such samples carried that tag.  Deleting the idle shard
// engines empties the population; the gate must then move to the
// handler threads.
TEST(ProfServeAttribution, ServeSamplesUnderWireLoadAreTagged) {
  bp::core::Polygraph model = bp::wire_load::train_production_model(8'000);
  const auto pool = bp::wire_load::session_pool(model, 500, 0x5EF7E2025);
  const auto frames = bp::wire_load::popularity_frames(pool, 1'000);
  bp::serve::ModelRegistry models;
  const auto config = bp::wire_load::server_config(model, pool.size());
  ASSERT_GT(models.publish(std::move(model)), 0u);
  bp::net::ScoreServer server(models, config);
  ASSERT_TRUE(server.running()) << server.error();

  prof::Profiler profiler;
  profiler.start({});
  const prof::ProfileSnapshot before = profiler.snapshot();
  const bp::wire_load::LoadResult load =
      bp::wire_load::drive(server.port(), frames, 500.0, 2, frames.size());
  const prof::ProfileSnapshot after = profiler.snapshot();
  profiler.stop();
  EXPECT_EQ(load.lost, 0u);
  EXPECT_EQ(load.corrupted, 0u);

  std::uint64_t serve_samples = 0;
  std::uint64_t serve_tagged = 0;
  for (const prof::Sample& sample :
       prof::Profiler::diff(before, after).samples) {
    if (std::string_view(sample.thread_name).substr(0, 6) != "serve.") continue;
    serve_samples += sample.count;
    if (sample.n_tags > 0) serve_tagged += sample.count;
  }
  ASSERT_GT(serve_samples, 0u) << "the sampler never saw a serve thread";
  if (serve_samples >= 64) {
    EXPECT_GE(2 * serve_tagged, serve_samples)
        << serve_tagged << " of " << serve_samples << " samples tagged";
  }
}

TEST(ProfAllocHook, CountsWhenLinkedAndEnabled) {
  if (!prof::alloc_hook_linked()) {
    GTEST_SKIP() << "bp_prof_alloc not linked into this binary "
                    "(sanitizer build compiles the hook out)";
  }
  EXPECT_FALSE(prof::alloc_counting());  // off by default
  const prof::AllocCounts before = prof::alloc_counts();
  prof::set_alloc_counting(true);
  {
    std::vector<std::unique_ptr<int>> keep;
    for (int i = 0; i < 64; ++i) keep.push_back(std::make_unique<int>(i));
  }
  prof::set_alloc_counting(false);
  const prof::AllocCounts after = prof::alloc_counts();
  EXPECT_GE(after.allocations, before.allocations + 64);
  EXPECT_GE(after.bytes, before.bytes + 64 * sizeof(int));

  // Gated off again: the counters hold still.
  const prof::AllocCounts quiesced = prof::alloc_counts();
  std::vector<std::unique_ptr<int>> extra;
  for (int i = 0; i < 16; ++i) extra.push_back(std::make_unique<int>(i));
  EXPECT_EQ(prof::alloc_counts().allocations, quiesced.allocations);
}

}  // namespace
