// Cost gates for the serving tier's always-on planes.
//
// The three overhead cases time the inline path ScoreServer::handle
// scores through: ScoringEngine::score_now with spans of one, cache
// off, on one caller thread.  Each is judged by the paired statistic of
// paired_gate.h (interleaved pairs whose first arm alternates, median
// run-time ratio, 95% bootstrap interval) at a 3% bound:
//
//   observability  planes off vs on at production posture: a shared
//                  registry, 1% trace sampling, 1% unflagged audit;
//   scrape         the instrumented engine unscraped vs scraped over
//                  real TCP, /metrics and /tracez in turn, at the start
//                  of each ~100 ms run and every ~100 ms after;
//   profiler       no profiler vs the default Profiler posture (100 Hz
//                  wall sampling of registered threads plus the CPU
//                  itimer), the caller registered as handler threads are.
//
// The cache case is a plain >= 5x assertion on the queue path (workers
// = min(hardware, 4), batch 64, capacity bit_ceil(4n), release-
// popularity traffic), because its speedup exists only where a
// submit-side hit skips the queue hop.  Every case skips under a
// sanitizer before measuring.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/http_common.h"
#include "obs/audit.h"
#include "obs/introspect/server.h"
#include "obs/metrics_registry.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"
#include "paired_gate.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"
#include "wire_load.h"

namespace bp::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kBound = 0.03;
constexpr int kPairs = 40;
constexpr std::size_t kSessions = 20'000;  // one overhead run, ~20-40 ms
// Scraped runs last three passes (~100 ms), so the ~100 ms scrape
// cadence puts about one scrape in each.
constexpr std::size_t kScrapePasses = 3;
constexpr int kScrapePairs = 24;

// One production model and a stream of distinct live sessions, ids
// 1..kSessions, shared by every case.
struct Fixture {
  Fixture() {
    core::Polygraph model = wire_load::train_production_model(8'000);
    for (traffic::SessionRecord& session :
         wire_load::session_pool(model, kSessions, 0x5EF7E2024)) {
      ScoreRequest request;
      request.id = stream.size() + 1;
      request.features = std::move(session.features);
      request.claimed = session.claimed;
      stream.push_back(std::move(request));
    }
    models.publish(std::move(model));
  }
  ModelRegistry models;
  std::vector<ScoreRequest> stream;
};

const Fixture& fixture() {
  static const Fixture shared;
  return shared;
}

EngineConfig inline_config() {
  EngineConfig config;
  config.workers = 1;  // idle: score_now scores on the caller
  return config;
}

// Seconds to score the stream `passes` times through score_now, one
// request per call, each copied into a reused request the way
// ScoreServer::handle does.
double inline_run_seconds(ScoringEngine& engine, ScoreScratch& scratch,
                          std::size_t passes = 1) {
  ScoreRequest request;
  ScoreResponse response;
  std::size_t scored = 0;
  const auto begin = Clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const ScoreRequest& session : fixture().stream) {
      request.id = session.id;
      request.features.assign(session.features.begin(),
                              session.features.end());
      request.claimed = session.claimed;
      engine.score_now({&request, 1}, {&response, 1}, scratch);
      scored += response.status == ResponseStatus::kScored;
    }
  }
  const std::chrono::duration<double> elapsed = Clock::now() - begin;
  EXPECT_EQ(scored, passes * fixture().stream.size());
  return elapsed.count();
}

// `pairs` on/off run-time ratios, the first arm alternating, after one
// untimed run of each arm.
std::vector<double> paired_ratios(const std::function<double()>& off,
                                  const std::function<double()>& on,
                                  int pairs = kPairs) {
  off();
  on();
  std::vector<double> ratios;
  for (int pair = 0; pair < pairs; ++pair) {
    double off_s = 0.0;
    double on_s = 0.0;
    if (pair % 2 == 0) {
      off_s = off();
      on_s = on();
    } else {
      on_s = on();
      off_s = off();
    }
    ratios.push_back(on_s / off_s);
  }
  return ratios;
}

void expect_within_bound(const std::vector<double>& ratios,
                         std::uint64_t seed) {
  const PairedGate gate = paired_ratio_gate(ratios, kBound, seed);
  EXPECT_FALSE(gate.trips) << "median ratio " << gate.median
                           << ", 95% interval [" << gate.lo << ", "
                           << gate.hi << "]";
  std::printf("paired gate: median ratio %.4f, 95%% interval [%.4f, %.4f]\n",
              gate.median, gate.lo, gate.hi);
}

TEST(ServeOverhead, ObservabilityPlanesCostUnderThreePercent) {
  if (kSanitized) GTEST_SKIP() << "timings mean nothing under a sanitizer";
  const Fixture& f = fixture();
  obs::MetricsRegistry registry;
  obs::TraceSink trace({.sample_rate = 0.01});
  obs::AuditTrail audit;
  EngineConfig on_config = inline_config();
  on_config.registry = &registry;
  on_config.trace = &trace;
  on_config.audit = &audit;
  // A fresh engine per run, so neither arm keeps one lucky or unlucky
  // heap layout for the whole test.
  const auto run = [&](const EngineConfig& config) {
    ScoringEngine engine(f.models, config, nullptr);
    ScoreScratch scratch;
    return inline_run_seconds(engine, scratch);
  };
  const std::vector<double> ratios =
      paired_ratios([&] { return run(inline_config()); },
                    [&] { return run(on_config); });
  EXPECT_GT(trace.recorded(), 0u);
  EXPECT_GT(audit.recorded(), 0u);
  expect_within_bound(ratios, 0x0B5);
}

TEST(ServeOverhead, ScrapeUnderLoadCostsUnderThreePercent) {
  if (kSanitized) GTEST_SKIP() << "timings mean nothing under a sanitizer";
  const Fixture& f = fixture();
  obs::MetricsRegistry registry;
  obs::TraceSink trace({.sample_rate = 0.01});
  obs::AuditTrail audit;
  EngineConfig config = inline_config();
  config.registry = &registry;
  config.trace = &trace;
  config.audit = &audit;
  ScoringEngine engine(f.models, config, nullptr);
  ScoreScratch scratch;
  obs::introspect::Sources sources;
  sources.metrics = &registry;
  sources.trace = &trace;
  sources.audit = &audit;
  obs::introspect::IntrospectionServer server(std::move(sources));
  ASSERT_TRUE(server.running()) << server.error();

  // The scraper of one scraped run: a GET at once, then one every
  // ~100 ms until the run ends.
  std::size_t scraped_runs = 0;
  std::size_t scrapes = 0;
  bool metrics_turn = true;
  const auto scraped_run = [&] {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::thread scraper([&] {
      std::unique_lock lock(mutex);
      do {
        lock.unlock();
        const net::HttpResult got =
            net::HttpClient("127.0.0.1", server.port())
                .get(metrics_turn ? "/metrics" : "/tracez",
                     /*close_connection=*/true);
        scrapes += got.status == 200;
        metrics_turn = !metrics_turn;
        lock.lock();
      } while (!cv.wait_for(lock, std::chrono::milliseconds(100),
                            [&] { return done; }));
    });
    const double seconds =
        inline_run_seconds(engine, scratch, kScrapePasses);
    {
      std::lock_guard lock(mutex);
      done = true;
    }
    cv.notify_one();
    scraper.join();
    ++scraped_runs;
    return seconds;
  };
  const std::vector<double> ratios = paired_ratios(
      [&] { return inline_run_seconds(engine, scratch, kScrapePasses); },
      scraped_run, kScrapePairs);
  EXPECT_GE(scrapes, scraped_runs) << "a scraped run went unscraped";
  expect_within_bound(ratios, 0x5C4A);
}

TEST(ServeOverhead, ProfilerCostsUnderThreePercent) {
  if (kSanitized) GTEST_SKIP() << "timings mean nothing under a sanitizer";
  ScoringEngine engine(fixture().models, inline_config(), nullptr);
  ScoreScratch scratch;
  const obs::prof::ThreadHandle registered("net.http_handler");
  obs::prof::Profiler profiler;
  const std::vector<double> ratios = paired_ratios(
      [&] { return inline_run_seconds(engine, scratch); },
      [&] {
        profiler.start();
        const double seconds = inline_run_seconds(engine, scratch);
        profiler.stop();
        return seconds;
      });
  EXPECT_GT(profiler.wall_samples(), 0u);
  expect_within_bound(ratios, 0x960F);
}

// Best of three: sessions per second over `stream` replayed `reps`
// times through submit + drain, after one untimed warming pass.
double best_queue_rate(const EngineConfig& config,
                       const std::vector<ScoreRequest>& stream,
                       std::size_t reps) {
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    ScoringEngine engine(fixture().models, config, nullptr);
    for (const ScoreRequest& request : stream) engine.submit(request);
    engine.drain();
    const auto begin = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (const ScoreRequest& request : stream) engine.submit(request);
    }
    engine.drain();
    const std::chrono::duration<double> elapsed = Clock::now() - begin;
    EXPECT_EQ(engine.metrics().scored, (reps + 1) * stream.size());
    best = std::max(best, static_cast<double>(stream.size() * reps) /
                              elapsed.count());
  }
  return best;
}

TEST(ServeOverhead, VerdictCacheServesPopularTrafficFiveTimesFaster) {
  if (kSanitized) GTEST_SKIP() << "timings mean nothing under a sanitizer";
  const std::vector<ScoreRequest>& unique = fixture().stream;
  std::vector<ScoreRequest> popular;
  for (const std::size_t idx :
       wire_load::popularity_draw(unique.size(), unique.size())) {
    popular.push_back(unique[idx]);
    popular.back().id = popular.size();
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  EngineConfig config;
  config.workers = std::min(hardware, 4u);
  config.max_batch = 64;
  config.queue_capacity = 4096;
  config.overflow_policy = OverflowPolicy::kBlock;
  const std::size_t reps = (200'000 + popular.size() - 1) / popular.size();
  const double uncached = best_queue_rate(config, popular, reps);
  config.cache_capacity = std::bit_ceil(4 * unique.size());
  const double cached = best_queue_rate(config, popular, reps);
  EXPECT_GE(cached / uncached, 5.0)
      << "uncached " << uncached << " vs cached " << cached << " sessions/s";
  std::printf("verdict cache: %.0f -> %.0f sessions/s (%.2fx)\n", uncached,
              cached, cached / uncached);
}

}  // namespace
}  // namespace bp::serve
