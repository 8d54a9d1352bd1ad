// bench_serving_throughput: load driver for the serving subsystem.
//
// Sweeps worker counts and batch sizes over a pre-generated session
// stream and reports sessions/second plus the latency distribution
// against the paper's ~100 ms per-request budget (§3).  The single
// worker / batch 1 configuration is the baseline; on a 4+ core machine
// the pool is expected to clear >= 3x its throughput.
//
// Beyond the worker/batch sweep, three more arms:
//   * observability overhead (full plane on vs off, < 3% gate),
//   * continuous-profiler overhead (wall+cpu sampler on vs off,
//     < 3% gate — the cost of leaving /profilez armed in production),
//   * the verdict cache under release-popularity traffic — the same
//     few fingerprints dominating the stream, as browser releases do
//     in production — where cached serving must clear >= 5x the
//     uncached throughput with a >= 50% hit rate.
//
// Gate arming: the cache gates are hardware-independent (a hash + one
// seqlock read beating a full PCA+k-means pass does not need spare
// cores) and are always enforced.  The concurrency-scaling and
// observability gates need real parallelism and only arm on 4+
// hardware threads.  "gates_enforced" in the JSON is true when every
// armed gate was enforced and passed.
//
// Output: a human-readable table on stdout plus machine-readable JSON
// ("serving_throughput.json" in the working directory, or argv[2]).
//
// Usage: bench_serving_throughput [n_sessions] [json_path]
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/http_common.h"
#include "obs/audit.h"
#include "obs/introspect/server.h"
#include "obs/metrics_registry.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"
#include "traffic/session_generator.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

struct RunResult {
  std::size_t workers = 0;
  std::size_t max_batch = 0;
  double seconds = 0.0;
  double sessions_per_second = 0.0;
  double speedup = 1.0;  // vs the single worker / batch 1 baseline
  bp::serve::MetricsSnapshot metrics;
  bp::serve::CacheStats cache;  // all-zero when the cache is off
};

// The full observability plane, as a production deployment would run it.
struct ObsPlanes {
  bp::obs::MetricsRegistry* registry = nullptr;
  bp::obs::TraceSink* trace = nullptr;
  bp::obs::AuditTrail* audit = nullptr;
};

// `reps` replays the stream that many times inside one timed run — the
// overhead-gate arms use it so each measurement lasts long enough to
// mean something on a small stream / slow machine (a millisecond-scale
// run measures the scheduler, not the instrumentation).
RunResult run_configuration(const bp::serve::ModelRegistry& registry,
                            const std::vector<bp::serve::ScoreRequest>& stream,
                            std::size_t workers, std::size_t max_batch,
                            const ObsPlanes* planes = nullptr,
                            std::size_t reps = 1,
                            std::size_t cache_capacity = 0) {
  bp::serve::EngineConfig config;
  config.workers = workers;
  config.max_batch = max_batch;
  config.queue_capacity = 4096;
  config.overflow_policy = bp::serve::OverflowPolicy::kBlock;
  config.cache_capacity = cache_capacity;
  if (planes != nullptr) {
    config.registry = planes->registry;
    config.trace = planes->trace;
    config.audit = planes->audit;
  }
  bp::serve::ScoringEngine engine(registry, config, nullptr);

  if (cache_capacity > 0) {
    // Warm-up pass (untimed): production caches run warm; the cold
    // fill is a one-off per model version, not steady state.
    for (const bp::serve::ScoreRequest& request : stream) {
      engine.submit(request);
    }
    engine.drain();
  }

  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const bp::serve::ScoreRequest& request : stream) {
      engine.submit(request);  // copies; every run scores identical work
    }
  }
  engine.drain();
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.workers = workers;
  result.max_batch = max_batch;
  result.seconds = std::chrono::duration<double>(end - begin).count();
  result.sessions_per_second =
      static_cast<double>(stream.size() * reps) / result.seconds;
  result.metrics = engine.metrics();
  result.cache = engine.cache_stats();
  engine.stop();
  return result;
}

// Release-popularity stream: `unique` distinct sessions, draws skewed
// hard toward the head (u^3 concentration) the way a handful of
// current browser releases dominates real traffic (paper §2: coarse
// fingerprints collide by design).  This is the workload the verdict
// cache exists for.
std::vector<bp::serve::ScoreRequest> make_popularity_stream(
    const std::vector<bp::serve::ScoreRequest>& unique_sessions,
    std::size_t n) {
  std::mt19937_64 rng(0xCAC4Eu);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<bp::serve::ScoreRequest> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = uniform(rng);
    const std::size_t idx = std::min(
        unique_sessions.size() - 1,
        static_cast<std::size_t>(
            static_cast<double>(unique_sessions.size()) * u * u * u));
    bp::serve::ScoreRequest request = unique_sessions[idx];
    request.id = i;
    stream.push_back(std::move(request));
  }
  return stream;
}

// The cache arm proper: the same engine configuration with the cache
// off, then on, over the popularity stream.  Best-of-`attempts` per
// arm; returns {uncached, cached}.
std::pair<RunResult, RunResult> run_cache_arms(
    const bp::serve::ModelRegistry& registry,
    const std::vector<bp::serve::ScoreRequest>& popular, std::size_t workers,
    std::size_t max_batch, std::size_t cache_capacity, std::size_t reps,
    int attempts) {
  RunResult uncached;
  RunResult cached;
  for (int rep = 0; rep < attempts; ++rep) {
    RunResult r = run_configuration(registry, popular, workers, max_batch,
                                    nullptr, reps, 0);
    if (r.sessions_per_second > uncached.sessions_per_second) uncached = r;
  }
  for (int rep = 0; rep < attempts; ++rep) {
    RunResult r = run_configuration(registry, popular, workers, max_batch,
                                    nullptr, reps, cache_capacity);
    if (r.sessions_per_second > cached.sessions_per_second) cached = r;
  }
  return {uncached, cached};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bp;

  std::size_t n_sessions = 30'000;
  std::string json_path = "serving_throughput.json";
  if (argc > 1) {
    char* end = nullptr;
    const long parsed = std::strtol(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || parsed <= 0) {
      std::fprintf(stderr,
                   "usage: %s [n_sessions > 0] [json_path]\n"
                   "  n_sessions: got '%s'\n",
                   argv[0], argv[1]);
      return 2;
    }
    n_sessions = static_cast<std::size_t>(parsed);
  }
  if (argc > 2) json_path = argv[2];

  constexpr double kCacheSpeedupGate = 5.0;   // cached vs uncached, same load
  constexpr double kCacheHitRateGate = 0.5;   // popularity stream floor

  std::printf("training the production model...\n");
  const auto trained = benchmark_support::train_production(
      benchmark_support::make_training_dataset(40'000));

  serve::ModelRegistry registry;
  registry.publish(trained.model);

  // Pre-generate the stream so the sweep measures scoring, not synthesis.
  std::printf("generating %zu live sessions...\n", n_sessions);
  traffic::TrafficConfig live_config;
  live_config.seed = 0x5EF7E2024;
  traffic::SessionGenerator live(live_config);
  const auto& indices = trained.model.config().feature_indices;
  std::vector<serve::ScoreRequest> stream;
  stream.reserve(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    traffic::SessionRecord session = live.next_session(indices);
    serve::ScoreRequest request;
    request.id = i;
    request.features = std::move(session.features);
    request.claimed = session.claimed;
    stream.push_back(std::move(request));
  }

  const unsigned hardware = std::thread::hardware_concurrency();

  std::vector<std::size_t> worker_counts{1, 2, 4};
  if (hardware > 4) worker_counts.push_back(hardware);
  // Oversubscription arm: workers past the core count must degrade
  // gracefully, not collapse (the workers=4 cliff this machine's
  // earlier recordings showed came from wakeup storms, not scheduling).
  const std::size_t oversub = 2 * std::max(1u, hardware);
  if (std::find(worker_counts.begin(), worker_counts.end(), oversub) ==
      worker_counts.end()) {
    worker_counts.push_back(oversub);
  }
  std::sort(worker_counts.begin(), worker_counts.end());
  const std::vector<std::size_t> batch_sizes{1, 16, 64};

  std::vector<RunResult> results;
  for (std::size_t workers : worker_counts) {
    for (std::size_t batch : batch_sizes) {
      RunResult result = run_configuration(registry, stream, workers, batch);
      if (!results.empty()) {
        result.speedup =
            result.sessions_per_second / results.front().sessions_per_second;
      }
      results.push_back(result);
      std::printf("  workers=%zu batch=%-3zu  %10.0f sessions/s  "
                  "p50=%.0fus p99=%.0fus\n",
                  result.workers, result.max_batch,
                  result.sessions_per_second, result.metrics.p50_micros(),
                  result.metrics.p99_micros());
    }
  }

  util::TextTable table(
      {"workers", "batch", "sessions/s", "speedup", "p50_us", "p95_us",
       "p99_us", "p99<100ms"});
  for (const RunResult& r : results) {
    char sps[32], speedup[16], p50[24], p95[24], p99[24];
    std::snprintf(sps, sizeof(sps), "%.0f", r.sessions_per_second);
    std::snprintf(speedup, sizeof(speedup), "%.2fx", r.speedup);
    std::snprintf(p50, sizeof(p50), "%.0f", r.metrics.p50_micros());
    std::snprintf(p95, sizeof(p95), "%.0f", r.metrics.p95_micros());
    std::snprintf(p99, sizeof(p99), "%.0f", r.metrics.p99_micros());
    table.add_row({std::to_string(r.workers), std::to_string(r.max_batch),
                   sps, speedup, p50, p95, p99,
                   r.metrics.within_budget() ? "yes" : "NO"});
  }
  std::printf("\nserving throughput (%u hardware threads, %zu sessions "
              "per run):\n%s",
              hardware, n_sessions, table.render().c_str());

  // ---- observability overhead gate ----
  //
  // The same fixed configuration with the full observability plane off
  // vs on (shared registry, 1% trace sampling, 1% unflagged audit
  // sampling — production posture).  Best-of-3 per arm dampens
  // scheduler noise; instrumentation must cost < 3% throughput.
  constexpr double kObsOverheadGate = 0.03;
  const std::size_t gate_workers =
      std::min<std::size_t>(hardware == 0 ? 1 : hardware, 4);
  constexpr std::size_t kGateBatch = 16;
  // Replay the stream inside each timed run until it covers at least
  // ~200k sessions, so one measurement spans ~100 ms+ even on a slow
  // single-core box — an arm that finishes in single-digit
  // milliseconds measures scheduler luck, not instrumentation cost.
  const std::size_t gate_reps =
      std::max<std::size_t>(1, (200'000 + n_sessions - 1) / n_sessions);
  std::printf("\nmeasuring observability overhead (workers=%zu batch=%zu, "
              "stream x%zu per run, best of 3 per arm)...\n",
              gate_workers, kGateBatch, gate_reps);
  double baseline_sps = 0.0;
  double instrumented_sps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    baseline_sps = std::max(
        baseline_sps,
        run_configuration(registry, stream, gate_workers, kGateBatch, nullptr,
                          gate_reps)
            .sessions_per_second);
  }
  for (int rep = 0; rep < 3; ++rep) {
    obs::MetricsRegistry obs_registry;
    obs::TraceSinkConfig trace_config;
    trace_config.sample_rate = 0.01;
    obs::TraceSink trace(trace_config);
    obs::AuditTrail audit;  // default 1% unflagged sampling
    const ObsPlanes planes{&obs_registry, &trace, &audit};
    instrumented_sps = std::max(
        instrumented_sps,
        run_configuration(registry, stream, gate_workers, kGateBatch, &planes,
                          gate_reps)
            .sessions_per_second);
  }
  const double obs_overhead = 1.0 - instrumented_sps / baseline_sps;
  const bool obs_within_gate = obs_overhead < kObsOverheadGate;
  std::printf("  disabled:  %10.0f sessions/s\n"
              "  enabled:   %10.0f sessions/s\n"
              "  overhead:  %+.2f%% (gate < %.0f%%) -> %s\n",
              baseline_sps, instrumented_sps, 100.0 * obs_overhead,
              100.0 * kObsOverheadGate, obs_within_gate ? "ok" : "FAIL");

  // ---- scrape-under-load arm ----
  //
  // Same instrumented configuration, but with a live introspection
  // server attached and a scraper thread alternating GET /metrics and
  // GET /tracez over real TCP every ~100 ms for the whole run — 150x
  // hotter than a production Prometheus cadence.  Gated on the
  // *marginal* cost of being scraped (vs the instrumented arm, whose
  // own cost the gate above already bounds): rendering expositions
  // while workers hammer the counters must cost < 3% throughput.
  std::printf("measuring scrape-under-load overhead (same config, "
              "/metrics + /tracez scraped every ~100 ms)...\n");
  double scraped_sps = 0.0;
  std::uint64_t scrapes_completed = 0;
  for (int rep = 0; rep < 3; ++rep) {
    obs::MetricsRegistry obs_registry;
    obs::TraceSinkConfig trace_config;
    trace_config.sample_rate = 0.01;
    obs::TraceSink trace(trace_config);
    obs::AuditTrail audit;
    obs::introspect::Sources sources;
    sources.metrics = &obs_registry;
    sources.trace = &trace;
    sources.audit = &audit;
    obs::introspect::IntrospectionServer server(std::move(sources), {});
    if (!server.running()) {
      std::fprintf(stderr, "introspection server failed: %s\n",
                   server.error().c_str());
      return 1;
    }
    std::atomic<bool> stop_scraper{false};
    std::uint64_t scrapes = 0;
    std::thread scraper([&] {
      bool metrics_turn = true;
      while (!stop_scraper.load(std::memory_order_acquire)) {
        const net::HttpResult got =
            net::HttpClient("127.0.0.1", server.port())
                .get(metrics_turn ? "/metrics" : "/tracez",
                     /*close_connection=*/true);
        if (got.status == 200) ++scrapes;
        metrics_turn = !metrics_turn;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    const ObsPlanes planes{&obs_registry, &trace, &audit};
    scraped_sps = std::max(
        scraped_sps,
        run_configuration(registry, stream, gate_workers, kGateBatch, &planes,
                          gate_reps)
            .sessions_per_second);
    stop_scraper.store(true, std::memory_order_release);
    scraper.join();
    server.stop();
    scrapes_completed += scrapes;
  }
  const double scrape_overhead = 1.0 - scraped_sps / instrumented_sps;
  const bool scrape_within_gate = scrape_overhead < kObsOverheadGate;
  std::printf("  scraped:   %10.0f sessions/s (%llu scrapes served)\n"
              "  overhead:  %+.2f%% vs instrumented (gate < %.0f%%) -> %s\n",
              scraped_sps, static_cast<unsigned long long>(scrapes_completed),
              100.0 * scrape_overhead, 100.0 * kObsOverheadGate,
              scrape_within_gate ? "ok" : "FAIL");

  // ---- profiler overhead arm ----
  //
  // The continuous profiler (src/obs/prof) in its production posture:
  // 100 Hz wall sampler over the registered worker threads, SIGPROF
  // self-capture per tick, plus the CPU itimer.  Gated on the marginal
  // cost vs the uninstrumented baseline — "always on" is only a
  // defensible default if being sampled costs < 3% throughput.
  constexpr double kProfilerOverheadGate = 0.03;
  std::printf("measuring profiler overhead (wall+cpu sampling, same "
              "config, best of 3)...\n");
  double profiled_sps = 0.0;
  std::uint64_t prof_wall_samples = 0;
  std::uint64_t prof_cpu_samples = 0;
  for (int rep = 0; rep < 3; ++rep) {
    obs::prof::Profiler profiler;
    profiler.start({});
    profiled_sps = std::max(
        profiled_sps,
        run_configuration(registry, stream, gate_workers, kGateBatch, nullptr,
                          gate_reps)
            .sessions_per_second);
    profiler.stop();
    prof_wall_samples += profiler.wall_samples();
    prof_cpu_samples += profiler.cpu_samples();
  }
  const double profiler_overhead = 1.0 - profiled_sps / baseline_sps;
  const bool profiler_within_gate = profiler_overhead < kProfilerOverheadGate;
  std::printf("  profiled:  %10.0f sessions/s "
              "(%llu wall + %llu cpu samples)\n"
              "  overhead:  %+.2f%% vs baseline (gate < %.0f%%) -> %s\n",
              profiled_sps,
              static_cast<unsigned long long>(prof_wall_samples),
              static_cast<unsigned long long>(prof_cpu_samples),
              100.0 * profiler_overhead, 100.0 * kProfilerOverheadGate,
              profiler_within_gate ? "ok" : "FAIL");

  // ---- verdict-cache arm (release-popularity traffic) ----
  //
  // The same engine configuration, cache off vs on, over a stream
  // where a head of popular sessions dominates — production's shape,
  // per the paper's coarse-fingerprint collision design.  Both gates
  // are hardware-independent: a hit replaces a full scaler+PCA+k-means
  // pass with one hash and one seqlock read on the *submitting*
  // thread, so the win does not depend on spare cores.
  const auto popular = make_popularity_stream(stream, n_sessions);
  const std::size_t cache_capacity = std::bit_ceil(4 * n_sessions);
  std::printf("\nmeasuring verdict cache (release-popularity stream, "
              "workers=%zu batch=64, capacity=%zu, stream x%zu, best of "
              "3)...\n",
              gate_workers, cache_capacity, gate_reps);
  const auto [uncached_run, cached_run] =
      run_cache_arms(registry, popular, gate_workers, 64, cache_capacity,
                     gate_reps, 3);
  const double cache_speedup =
      cached_run.sessions_per_second / uncached_run.sessions_per_second;
  const double cache_hit_rate = cached_run.cache.hit_rate();
  const bool cache_speedup_ok = cache_speedup >= kCacheSpeedupGate;
  const bool cache_hit_rate_ok = cache_hit_rate >= kCacheHitRateGate;
  std::printf("  uncached:  %10.0f sessions/s (p50=%.0fus)\n"
              "  cached:    %10.0f sessions/s (p50=%.0fus, hit rate %.3f)\n"
              "  speedup:   %.2fx (gate >= %.1fx) -> %s; hit rate gate "
              ">= %.2f -> %s\n",
              uncached_run.sessions_per_second,
              uncached_run.metrics.p50_micros(),
              cached_run.sessions_per_second, cached_run.metrics.p50_micros(),
              cache_hit_rate, cache_speedup, kCacheSpeedupGate,
              cache_speedup_ok ? "ok" : "FAIL", kCacheHitRateGate,
              cache_hit_rate_ok ? "ok" : "FAIL");

  // ---- gate verdicts ----
  //
  // Always armed: the p99 latency budget and both cache gates.
  // Armed on 4+ hardware threads: pool scaling and the three
  // overhead gates — observability, scrape-under-load, profiler
  // (below that, submitter, workers, scraper and sampler time-share
  // cores and the measurement is scheduler noise).
  double best_speedup = 1.0;
  bool all_within_budget = true;
  for (const RunResult& r : results) {
    best_speedup = std::max(best_speedup, r.speedup);
    all_within_budget = all_within_budget && r.metrics.within_budget();
  }
  const bool concurrency_armed = hardware >= 4;
  const bool scaling_ok = best_speedup >= 3.0;
  const bool gates_enforced =
      all_within_budget && cache_speedup_ok && cache_hit_rate_ok &&
      (!concurrency_armed ||
       (scaling_ok && obs_within_gate && scrape_within_gate &&
        profiler_within_gate));

  std::string json = "{\n";
  json += "  \"hardware_threads\": " + std::to_string(hardware) + ",\n";
  json += "  \"sessions_per_run\": " + std::to_string(n_sessions) + ",\n";
  json += "  \"latency_budget_micros\": " +
          std::to_string(serve::kLatencyBudgetMicros) + ",\n";
  json += std::string("  \"gates_enforced\": ") +
          (gates_enforced ? "true" : "false") + ",\n";
  {
    char cache_entry[768];
    std::snprintf(
        cache_entry, sizeof(cache_entry),
        "  \"cache\": {\"uncached_sessions_per_second\": %.1f, "
        "\"cached_sessions_per_second\": %.1f, "
        "\"speedup\": %.3f, \"speedup_gate\": %.1f, "
        "\"hit_rate\": %.4f, \"hit_rate_gate\": %.2f, "
        "\"uncached_p50_micros\": %.1f, \"cached_p50_micros\": %.1f, "
        "\"hits\": %llu, \"misses\": %llu, \"stale\": %llu, "
        "\"inserts\": %llu, \"occupancy\": %llu, \"capacity\": %llu, "
        "\"speedup_within_gate\": %s, \"hit_rate_within_gate\": %s, "
        "\"enforced\": true},\n",
        uncached_run.sessions_per_second, cached_run.sessions_per_second,
        cache_speedup, kCacheSpeedupGate, cache_hit_rate, kCacheHitRateGate,
        uncached_run.metrics.p50_micros(), cached_run.metrics.p50_micros(),
        static_cast<unsigned long long>(cached_run.cache.hits),
        static_cast<unsigned long long>(cached_run.cache.misses),
        static_cast<unsigned long long>(cached_run.cache.stale),
        static_cast<unsigned long long>(cached_run.cache.inserts),
        static_cast<unsigned long long>(cached_run.cache.occupancy),
        static_cast<unsigned long long>(cached_run.cache.capacity),
        cache_speedup_ok ? "true" : "false",
        cache_hit_rate_ok ? "true" : "false");
    json += cache_entry;
  }
  {
    char obs_entry[512];
    std::snprintf(
        obs_entry, sizeof(obs_entry),
        "  \"observability\": {\"baseline_sessions_per_second\": %.1f, "
        "\"instrumented_sessions_per_second\": %.1f, "
        "\"overhead_fraction\": %.4f, "
        "\"scraped_sessions_per_second\": %.1f, "
        "\"scrape_overhead_fraction\": %.4f, "
        "\"scrapes_completed\": %llu, "
        "\"gate_fraction\": %.2f, "
        "\"within_gate\": %s, \"scrape_within_gate\": %s, "
        "\"enforced\": %s},\n",
        baseline_sps, instrumented_sps, obs_overhead, scraped_sps,
        scrape_overhead, static_cast<unsigned long long>(scrapes_completed),
        kObsOverheadGate, obs_within_gate ? "true" : "false",
        scrape_within_gate ? "true" : "false",
        concurrency_armed ? "true" : "false");
    json += obs_entry;
  }
  {
    char prof_entry[384];
    std::snprintf(
        prof_entry, sizeof(prof_entry),
        "  \"profiler\": {\"baseline_sessions_per_second\": %.1f, "
        "\"profiled_sessions_per_second\": %.1f, "
        "\"overhead_fraction\": %.4f, \"gate_fraction\": %.2f, "
        "\"wall_samples\": %llu, \"cpu_samples\": %llu, "
        "\"within_gate\": %s, \"enforced\": %s},\n",
        baseline_sps, profiled_sps, profiler_overhead, kProfilerOverheadGate,
        static_cast<unsigned long long>(prof_wall_samples),
        static_cast<unsigned long long>(prof_cpu_samples),
        profiler_within_gate ? "true" : "false",
        concurrency_armed ? "true" : "false");
    json += prof_entry;
  }
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    char entry[512];
    std::snprintf(
        entry, sizeof(entry),
        "    {\"workers\": %zu, \"max_batch\": %zu, \"seconds\": %.4f, "
        "\"sessions_per_second\": %.1f, \"speedup_vs_single\": %.3f, "
        "\"p50_micros\": %.1f, \"p95_micros\": %.1f, \"p99_micros\": %.1f, "
        "\"within_budget\": %s}%s\n",
        r.workers, r.max_batch, r.seconds, r.sessions_per_second, r.speedup,
        r.metrics.p50_micros(), r.metrics.p95_micros(),
        r.metrics.p99_micros(),
        r.metrics.within_budget() ? "true" : "false",
        i + 1 == results.size() ? "" : ",");
    json += entry;
  }
  json += "  ]\n}\n";
  if (!util::write_file(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nJSON written to %s\n", json_path.c_str());

  std::printf("best speedup %.2fx; %s\n", best_speedup,
              all_within_budget ? "all runs inside the 100 ms p99 budget"
                                : "SOME RUNS OVER the 100 ms p99 budget");
  if (!cache_speedup_ok) {
    std::fprintf(stderr, "FAIL: cache speedup %.2fx below the %.1fx gate\n",
                 cache_speedup, kCacheSpeedupGate);
  }
  if (!cache_hit_rate_ok) {
    std::fprintf(stderr, "FAIL: cache hit rate %.3f below the %.2f gate\n",
                 cache_hit_rate, kCacheHitRateGate);
  }
  if (concurrency_armed && !scaling_ok) {
    std::fprintf(stderr, "FAIL: expected >= 3x speedup on %u threads\n",
                 hardware);
  }
  if (concurrency_armed && !obs_within_gate) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds the %.0f%% "
                 "gate\n",
                 100.0 * obs_overhead, 100.0 * kObsOverheadGate);
  }
  if (concurrency_armed && !scrape_within_gate) {
    std::fprintf(stderr,
                 "FAIL: scrape-under-load overhead %.2f%% exceeds the %.0f%% "
                 "gate\n",
                 100.0 * scrape_overhead, 100.0 * kObsOverheadGate);
  }
  if (concurrency_armed && !profiler_within_gate) {
    std::fprintf(stderr,
                 "FAIL: profiler overhead %.2f%% exceeds the %.0f%% gate\n",
                 100.0 * profiler_overhead, 100.0 * kProfilerOverheadGate);
  }
  if (!concurrency_armed) {
    std::printf("(scaling and overhead gates measured but not armed on %u "
                "hardware threads)\n", hardware);
  }
  return gates_enforced ? 0 : 1;
}
