// Callback-gauge unregistration racing a live scrape.
//
// The MetricsRegistry contract is "remove the callback before its
// referent dies".  That is only a usable contract if remove() actually
// excludes in-flight renders: once remove(name) returns, no render may
// invoke the callback again, and a render running concurrently with
// remove() must either see the gauge wholly (callback still valid) or
// not at all — never a torn/dangling call.  These tests hammer exactly
// that seam; the TSan tier is where a locking mistake shows up as a
// reported race, here it shows up as a read of a poisoned referent.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics_registry.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"

namespace {

TEST(ObsGaugeRace, RemoveExcludesInFlightScrapes) {
  bp::obs::MetricsRegistry registry;
  registry.counter("steady", "always present").increment();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string prom = registry.render_prometheus();
      const std::string json = registry.render_json();
      EXPECT_NE(prom.find("steady"), std::string::npos);
      EXPECT_NE(json.find("steady"), std::string::npos);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Let the scraper get going first: on a loaded host the loop below
  // can otherwise finish before the scraper thread is ever scheduled.
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  // Register/remove a callback gauge whose referent is heap state that
  // is poisoned immediately after remove() returns.  A render invoking
  // the callback after remove would read the poison.
  for (int i = 0; i < 400; ++i) {
    auto referent = std::make_unique<std::atomic<double>>(1.0);
    auto* raw = referent.get();
    registry.gauge_callback(
        "flicker", [raw] {
          const double v = raw->load(std::memory_order_relaxed);
          EXPECT_EQ(v, 1.0) << "callback ran against a dead referent";
          return v;
        },
        "transient");
    std::this_thread::yield();
    registry.remove("flicker");
    raw->store(-1.0, std::memory_order_relaxed);  // poison
    referent.reset();
  }

  stop.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);
  // The transient gauge is gone for good.
  EXPECT_EQ(registry.render_prometheus().find("flicker"), std::string::npos);
}

// The production shape of the same race: a ScoringEngine registers
// <prefix>_queue_depth / <prefix>_model_version callback gauges that
// read engine internals, and its stop() removes them.  Tearing engines
// down while a scraper loops must never render through a dead engine.
TEST(ObsGaugeRace, EngineLifecycleUnderConcurrentScrape) {
  bp::obs::MetricsRegistry registry;
  bp::serve::ModelRegistry models;

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry.render_prometheus();
      (void)registry.render_json();
    }
  });

  for (int i = 0; i < 12; ++i) {
    bp::serve::EngineConfig config;
    config.workers = 2;
    config.queue_capacity = 8;
    config.registry = &registry;
    bp::serve::ScoringEngine engine(models, config,
                                    [](const bp::serve::ScoreResponse&) {});
    std::this_thread::yield();
    engine.stop();
  }

  stop.store(true, std::memory_order_release);
  scraper.join();
  // After the last stop every engine gauge is unregistered: a final
  // render sees no engine callback gauges.
  EXPECT_EQ(registry.render_prometheus().find("queue_depth"),
            std::string::npos);
}

}  // namespace
