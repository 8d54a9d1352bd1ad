// bench_net_saturation: open-loop load generator for the network
// scoring plane (src/net).
//
// Drives POST /score over M keep-alive connections at a configured
// *offered* arrival rate, independent of how fast the server answers —
// the open-loop discipline: every request has a scheduled arrival time
// derived from the rate alone, and its latency is measured from that
// schedule, not from when a backed-up sender finally wrote it.  A
// closed-loop driver (send, wait, send) silently slows down with the
// server and hides saturation — the coordinated-omission trap this
// bench exists to avoid.
//
// Per connection, one sender thread paces and pipelines requests while
// one reader thread drains responses in order (the HttpClient
// send_request/read_response halves).  Every response is parsed and
// checked: HTTP 200 with a well-formed wire frame echoing the expected
// session id counts as answered; HTTP 503 is the server *telling* the
// client it shed (counted, not lost); anything else — transport error,
// unparseable frame, wrong session echo — is lost or corrupted, and
// the sweep's acceptance line is zero of both.
//
// Traffic is release-popularity shaped: frame *content* is drawn with
// a u^3-skewed distribution over a smaller pool of unique sessions —
// the coarse-fingerprint collision profile browser releases produce —
// so the router's per-shard verdict cache (enabled under test) hits on
// repeat (fingerprint, UA) pairs within a single sweep point.  Every
// frame still carries its own session id, so response echo validation
// is as strict as with unique traffic.
//
// Output: a table on stdout plus machine-readable JSON (latency
// percentiles vs offered load, plus router cache counters;
// "net_saturation.json" or argv's path).
//
// Usage:
//   bench_net_saturation [json_path]         # full rate sweep
//   bench_net_saturation --smoke [json_path] # one short rate, CI gate
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/chaos_proxy.h"
#include "net/http_common.h"
#include "net/score_client.h"
#include "net/score_server.h"
#include "net/wire.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "traffic/session_generator.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

struct RateResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  // answered / wall time
  std::size_t connections = 0;
  std::size_t sent = 0;
  std::size_t answered = 0;  // HTTP 200 with a valid scored/degraded frame
  std::size_t shed = 0;      // HTTP 503: explicit backpressure
  std::size_t lost = 0;      // no response at all
  std::size_t corrupted = 0;  // response that failed validation
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double seconds = 0.0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// One offered-load point: `total` requests spread evenly over
// `connections` keep-alive connections at `offered_rps` aggregate.
RateResult drive(std::uint16_t port,
                 const std::vector<std::string>& frames,
                 double offered_rps, std::size_t connections,
                 std::size_t total) {
  RateResult result;
  result.offered_rps = offered_rps;
  result.connections = connections;

  const double interval_s =
      static_cast<double>(connections) / offered_rps;  // per-connection gap

  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::size_t> sent(connections, 0), answered(connections, 0),
      shed(connections, 0), lost(connections, 0), corrupted(connections, 0);

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < connections; ++c) {
    drivers.emplace_back([&, c] {
      const std::size_t n =
          total / connections + (c < total % connections ? 1 : 0);
      bp::net::HttpClient client("127.0.0.1", port,
                                 std::chrono::milliseconds(10'000));
      if (!client.connect()) {
        lost[c] = n;
        return;
      }
      latencies[c].reserve(n);
      // The connection's arrival schedule, fixed before any response.
      std::vector<Clock::time_point> schedule(n);
      for (std::size_t i = 0; i < n; ++i) {
        schedule[i] =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         (static_cast<double>(i) +
                          static_cast<double>(c) /
                              static_cast<double>(connections)) *
                         interval_s));
      }

      std::atomic<std::size_t> n_sent{0};
      std::atomic<bool> sender_done{false};
      std::thread sender([&] {
        for (std::size_t i = 0; i < n; ++i) {
          std::this_thread::sleep_until(schedule[i]);
          const std::string& frame =
              frames[(c + i * connections) % frames.size()];
          if (!client.send_request("POST", "/score", frame,
                                   "application/x-bpwire")) {
            break;  // transport gone; reader accounts the shortfall
          }
          n_sent.store(i + 1, std::memory_order_release);
        }
        sender_done.store(true, std::memory_order_release);
      });

      // Reader: responses arrive in pipeline order, so response i
      // pairs with schedule[i] and frame (c + i*connections) % size.
      std::size_t i = 0;
      while (true) {
        while (n_sent.load(std::memory_order_acquire) <= i &&
               !sender_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (n_sent.load(std::memory_order_acquire) <= i) break;  // all read
        bp::net::WireScoreResponse verdict;
        const bp::net::HttpResult got = client.read_response();
        if (got.status < 0) break;  // transport error: rest is lost
        const auto now = Clock::now();
        const std::uint64_t want_session =
            (c + i * connections) % frames.size() + 1;
        if (got.status == 503) {
          ++shed[c];
        } else if (got.status != 200) {
          ++corrupted[c];
        } else if (bp::net::parse_score_response(got.body, &verdict) !=
                       bp::net::WireError::kOk ||
                   verdict.session_id != want_session) {
          ++corrupted[c];
        } else {
          ++answered[c];
          latencies[c].push_back(
              std::chrono::duration<double, std::micro>(now - schedule[i])
                  .count());
        }
        ++i;
      }
      sender.join();
      sent[c] = n_sent.load(std::memory_order_acquire);
      lost[c] += sent[c] - (answered[c] + shed[c] + corrupted[c]);
    });
  }
  for (std::thread& driver : drivers) driver.join();
  const double seconds = std::chrono::duration<double>(
                             Clock::now() - t0)
                             .count();

  std::vector<double> all;
  for (std::size_t c = 0; c < connections; ++c) {
    result.sent += sent[c];
    result.answered += answered[c];
    result.shed += shed[c];
    result.lost += lost[c];
    result.corrupted += corrupted[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  std::sort(all.begin(), all.end());
  result.p50_us = percentile(all, 0.50);
  result.p95_us = percentile(all, 0.95);
  result.p99_us = percentile(all, 0.99);
  result.p999_us = percentile(all, 0.999);
  result.seconds = seconds;
  result.achieved_rps =
      seconds > 0.0 ? static_cast<double>(result.answered) / seconds : 0.0;
  return result;
}

// ------------------------------------------------------------- fault arm
//
// The same plane under *injected* stalls: a deterministic ChaosProxy
// (net/chaos_proxy.h) sits between client and server delaying ~1% of
// relayed chunks by 40 ms, and a ScoreClient scores through it twice —
// once plain, once with a 5 ms hedge.  The open-loop sweep above asks
// "how does the plane behave at the load it is offered"; this arm asks
// "what does tail latency cost when the network itself misbehaves, and
// how much of that cost does hedging buy back".  The acceptance line:
// hedged p99 < unhedged p99, with zero lost and zero corrupted calls
// in both arms (every injected stall absorbed inside the deadline).

struct FaultArmResult {
  std::size_t calls = 0;
  std::size_t lost = 0;       // outcome != kOk
  std::size_t corrupted = 0;  // accepted verdict failing validation
  double p50_us = 0.0, p99_us = 0.0;
  double seconds = 0.0;
  bp::net::ScoreClientStats client;  // attempts/hedges/hedge_wins
  bp::net::ChaosProxyStats chaos;    // injected delays actually fired
};

FaultArmResult drive_fault_arm(std::uint16_t server_port,
                               const std::vector<bp::traffic::SessionRecord>&
                                   pool,
                               std::size_t calls,
                               std::chrono::milliseconds hedge_delay) {
  FaultArmResult result;
  result.calls = calls;

  // Both arms use the same seed.  The unhedged arm reuses one pooled
  // keep-alive connection, so its chunk sequence — and therefore its
  // injected-stall schedule — is deterministic run to run; the hedged
  // arm opens extra connections (new chaos streams) but draws from the
  // same per-chunk rate.
  bp::net::ChaosProxyConfig chaos_config;
  chaos_config.upstream_port = server_port;
  chaos_config.seed = 0xFA17A;
  chaos_config.delay_probability = 0.01;
  chaos_config.delay = std::chrono::milliseconds(40);
  bp::net::ChaosProxy proxy(chaos_config);
  if (!proxy.running()) {
    std::fprintf(stderr, "chaos proxy failed: %s\n", proxy.error().c_str());
    result.lost = calls;
    return result;
  }

  bp::net::ScoreClientConfig client_config;
  client_config.port = proxy.port();
  client_config.io_timeout = std::chrono::milliseconds(1'000);
  client_config.deadline = std::chrono::milliseconds(3'000);
  client_config.max_attempts = 4;
  client_config.initial_backoff = std::chrono::milliseconds(2);
  client_config.max_backoff = std::chrono::milliseconds(20);
  client_config.hedge_delay = hedge_delay;
  bp::net::ScoreClient client(client_config);

  std::vector<double> latencies;
  latencies.reserve(calls);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    const bp::traffic::SessionRecord& session = pool[i % pool.size()];
    const std::uint64_t session_id = i + 1;
    const auto start = Clock::now();
    const bp::net::ScoreCallResult call =
        client.score(session_id, session.user_agent, session.features);
    const auto end = Clock::now();
    if (call.outcome != bp::net::ScoreClientOutcome::kOk) {
      ++result.lost;
      continue;
    }
    if (call.response.session_id != session_id) {
      ++result.corrupted;
      continue;
    }
    latencies.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  proxy.stop();
  result.client = client.stats();
  result.chaos = proxy.stats();
  std::sort(latencies.begin(), latencies.end());
  result.p50_us = percentile(latencies, 0.50);
  result.p99_us = percentile(latencies, 0.99);
  return result;
}

// ------------------------------------------------------------ trace arm
//
// What does cross-hop tracing cost the plane?  Two fresh servers with
// identical configs — one with a trace sink on its engines, one
// without — each driven flat out (closed loop: every arrival scheduled
// in the past, so the senders pipeline as fast as the sockets allow).
// The traced arm's frames all carry a t: wire segment, so every
// request pays the extension parse + adoption; the sink's head
// sampling (production-shaped 1%) decides which also pay the span
// recording.  Best-of-N per arm absorbs scheduler noise; the
// acceptance line is <3% throughput overhead.

struct TraceArmResult {
  double off_rps_best = 0.0;
  double on_rps_best = 0.0;
  double overhead_pct = 0.0;  // (off - on) / off * 100; negative = noise
  std::size_t lost = 0;       // both arms, all runs
  std::size_t corrupted = 0;
  std::uint64_t spans_recorded = 0;  // server-side, traced arm
};

TraceArmResult drive_trace_arm(const bp::serve::ModelRegistry& registry,
                               const bp::net::ScoreServerConfig& base_config,
                               const std::vector<std::string>& frames,
                               std::size_t connections, std::size_t total,
                               int runs) {
  TraceArmResult result;

  bp::obs::TraceSinkConfig sink_config;
  sink_config.capacity = 8192;
  sink_config.sample_rate = 0.01;  // production posture
  bp::obs::TraceSink sink(sink_config);

  bp::net::ScoreServerConfig off_config = base_config;
  off_config.router.engine.trace = nullptr;
  bp::net::ScoreServerConfig on_config = base_config;
  on_config.router.engine.trace = &sink;
  bp::net::ScoreServer off_server(registry, off_config);
  bp::net::ScoreServer on_server(registry, on_config);
  if (!off_server.running() || !on_server.running()) {
    std::fprintf(stderr, "trace-arm server failed: %s%s\n",
                 off_server.error().c_str(), on_server.error().c_str());
    result.lost = total;
    return result;
  }

  // Every traced frame carries a context minted the way ScoreClient
  // does: deterministic id, parent = the first attempt's primary span,
  // sampled = the sink's own head-sampling decision for that id.
  std::vector<std::string> traced;
  traced.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::uint64_t state = i + 1;
    const std::uint64_t trace_id =
        std::max<std::uint64_t>(1, bp::util::splitmix64(state));
    std::string frame = frames[i];
    bp::net::append_trace_context({trace_id, 10, sink.sampled(trace_id)},
                                  &frame);
    traced.push_back(std::move(frame));
  }

  // Interleave the arms run for run so drift (thermal, other tenants)
  // lands on both; run 1 of each also warms its server's verdict cache
  // to the same popularity profile, and best-of-N keeps the warm runs.
  for (int run = 0; run < runs; ++run) {
    const RateResult off = drive(off_server.port(), frames, 1e7,
                                 connections, total);
    const RateResult on = drive(on_server.port(), traced, 1e7,
                                connections, total);
    result.off_rps_best = std::max(result.off_rps_best, off.achieved_rps);
    result.on_rps_best = std::max(result.on_rps_best, on.achieved_rps);
    result.lost += off.lost + on.lost;
    result.corrupted += off.corrupted + on.corrupted;
  }
  result.overhead_pct =
      result.off_rps_best > 0.0
          ? (result.off_rps_best - result.on_rps_best) /
                result.off_rps_best * 100.0
          : 0.0;
  result.spans_recorded = sink.recorded();
  off_server.stop();
  on_server.stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bp;

  bool smoke = false;
  std::string json_path = "net_saturation.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  std::printf("training the production model...\n");
  const auto trained = benchmark_support::train_production(
      benchmark_support::make_training_dataset(smoke ? 8'000 : 40'000));
  serve::ModelRegistry registry;
  registry.publish(trained.model);

  // The unique-session pool the popularity draw collapses frames onto;
  // repeats of a pool member are exact (fingerprint, UA) replays.
  const std::size_t n_frames = smoke ? 2'000 : 10'000;
  const std::size_t unique_sessions = std::max<std::size_t>(64, n_frames / 4);

  // ---- the server under test: sharded router behind POST /score ----
  net::ScoreServerConfig config;
  config.listener.handler_threads = 4;
  config.router.shards = 2;
  config.router.engine.workers = 2;
  // Per-shard content-addressed verdict cache, sized so the whole
  // unique pool fits with headroom even if sharding lands unevenly.
  config.router.engine.cache_capacity = std::bit_ceil(4 * unique_sessions);
  config.expected_features = trained.model.config().feature_indices.size();
  net::ScoreServer server(registry, config);
  if (!server.running()) {
    std::fprintf(stderr, "score server failed: %s\n", server.error().c_str());
    return 1;
  }

  // ---- pre-render the wire frames so the drivers measure the plane,
  // not client-side synthesis ----
  //
  // Content is popularity-skewed over `unique_sessions` distinct
  // sessions (same u^3 draw and seed as bench_serving_throughput's
  // release-popularity stream), while session ids stay per-frame so
  // the echo check still catches any cross-request mixup.
  std::printf("rendering %zu request frames over %zu unique sessions...\n",
              n_frames, unique_sessions);
  traffic::TrafficConfig live_config;
  live_config.seed = 0x5EF7E2025;
  traffic::SessionGenerator live(live_config);
  const auto& indices = trained.model.config().feature_indices;
  std::vector<traffic::SessionRecord> pool;
  pool.reserve(unique_sessions);
  for (std::size_t i = 0; i < unique_sessions; ++i) {
    pool.push_back(live.next_session(indices));
  }
  std::mt19937_64 popularity(0xCAC4Eu);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::string> frames;
  frames.reserve(n_frames);
  for (std::size_t i = 0; i < n_frames; ++i) {
    const double u = unit(popularity);
    const std::size_t idx = std::min(
        pool.size() - 1,
        static_cast<std::size_t>(static_cast<double>(pool.size()) * u * u * u));
    const traffic::SessionRecord& session = pool[idx];
    std::string frame;
    net::render_score_request(i + 1, session.user_agent, session.features,
                              &frame);
    frames.push_back(std::move(frame));
  }

  const std::size_t connections = smoke ? 2 : 4;
  std::vector<double> rates;
  std::vector<std::size_t> totals;
  if (smoke) {
    rates = {1'000.0};
    totals = {1'000};
  } else {
    rates = {2'000.0, 5'000.0, 10'000.0, 20'000.0, 40'000.0};
    for (const double rate : rates) {
      // ~2 seconds of offered traffic per point.
      totals.push_back(static_cast<std::size_t>(rate * 2.0));
    }
  }

  std::printf("driving %zu keep-alive connections (open-loop; latency "
              "measured from scheduled arrival):\n",
              connections);
  std::vector<RateResult> results;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    RateResult r = drive(server.port(), frames, rates[i], connections,
                         totals[i]);
    std::printf("  offered %7.0f rps -> answered %7.0f rps  "
                "p50=%.0fus p99=%.0fus p999=%.0fus  "
                "shed=%zu lost=%zu corrupted=%zu\n",
                r.offered_rps, r.achieved_rps, r.p50_us, r.p99_us, r.p999_us,
                r.shed, r.lost, r.corrupted);
    results.push_back(std::move(r));
  }
  // ---- fault arm: hedged vs unhedged through the chaos proxy ----
  const std::size_t fault_calls = smoke ? 400 : 1'500;
  std::printf("\nfault arm: %zu calls through a chaos proxy "
              "(1%% of chunks stalled 40ms)...\n",
              fault_calls);
  const FaultArmResult unhedged = drive_fault_arm(
      server.port(), pool, fault_calls, std::chrono::milliseconds(0));
  const FaultArmResult hedged = drive_fault_arm(
      server.port(), pool, fault_calls, std::chrono::milliseconds(5));
  std::printf("  unhedged: p50=%.0fus p99=%.0fus  lost=%zu corrupted=%zu  "
              "attempts=%llu stalls_injected=%llu\n",
              unhedged.p50_us, unhedged.p99_us, unhedged.lost,
              unhedged.corrupted,
              static_cast<unsigned long long>(unhedged.client.attempts),
              static_cast<unsigned long long>(unhedged.chaos.delays));
  std::printf("  hedged:   p50=%.0fus p99=%.0fus  lost=%zu corrupted=%zu  "
              "hedges=%llu hedge_wins=%llu stalls_injected=%llu\n",
              hedged.p50_us, hedged.p99_us, hedged.lost, hedged.corrupted,
              static_cast<unsigned long long>(hedged.client.hedges),
              static_cast<unsigned long long>(hedged.client.hedge_wins),
              static_cast<unsigned long long>(hedged.chaos.delays));

  // ---- profiler attribution arm ----
  //
  // /profilez's question, asked under load: when the continuous
  // profiler wall-samples the plane while it serves real traffic, do
  // serve-side samples land on named PROF_SCOPE stages or in
  // unattributed dark matter?  "Serve-side" is every thread the engine
  // registered under "serve." (workers and watchdogs — including the
  // watchdog keeps the denominator honest); "attributed" means the
  // sample carries at least one tag.  Attribution is a ratio, not a
  // timing, so the gate arms on sample count, not core count.
  constexpr double kAttributionGate = 0.5;
  constexpr std::uint64_t kAttributionMinSamples = 64;
  const double prof_rate = smoke ? 500.0 : 2'000.0;
  const std::size_t prof_total = static_cast<std::size_t>(prof_rate * 2.0);
  std::printf("\nprofiler arm: wall-sampling the plane under %.0f rps of "
              "offered load...\n",
              prof_rate);
  obs::prof::Profiler profiler;
  profiler.start({});
  const obs::prof::ProfileSnapshot prof_before = profiler.snapshot();
  const RateResult prof_run =
      drive(server.port(), frames, prof_rate, connections, prof_total);
  const obs::prof::ProfileSnapshot prof_after = profiler.snapshot();
  profiler.stop();
  const obs::prof::ProfileSnapshot prof_window =
      obs::prof::Profiler::diff(prof_before, prof_after);
  std::uint64_t serve_samples = 0;
  std::uint64_t serve_tagged = 0;
  for (const obs::prof::Sample& sample : prof_window.samples) {
    if (std::strncmp(sample.thread_name, "serve.", 6) != 0) continue;
    serve_samples += sample.count;
    if (sample.n_tags > 0) serve_tagged += sample.count;
  }
  const double attributed_fraction =
      serve_samples > 0
          ? static_cast<double>(serve_tagged) /
                static_cast<double>(serve_samples)
          : 0.0;
  const bool attribution_enforced = serve_samples >= kAttributionMinSamples;
  const bool attribution_ok = attributed_fraction >= kAttributionGate;
  std::printf("  %llu samples in the window, %llu serve-side, %llu tagged "
              "-> %.1f%% attributed (gate >= %.0f%%, %s) -> %s\n",
              static_cast<unsigned long long>(prof_window.total()),
              static_cast<unsigned long long>(serve_samples),
              static_cast<unsigned long long>(serve_tagged),
              100.0 * attributed_fraction, 100.0 * kAttributionGate,
              attribution_enforced ? "enforced" : "too few samples to arm",
              attribution_ok ? "ok" : "FAIL");

  // ---- trace arm: what does cross-hop tracing cost at saturation? ----
  const std::size_t trace_total = smoke ? 1'000 : 4'000;
  const int trace_runs = 3;
  std::printf("\ntrace arm: %zu closed-loop calls per run, best of %d, "
              "traced vs untraced...\n",
              trace_total, trace_runs);
  const TraceArmResult trace_arm = drive_trace_arm(
      registry, config, frames, connections, trace_total, trace_runs);
  std::printf("  tracing off: %7.0f rps   tracing on: %7.0f rps   "
              "overhead %.2f%%  (spans recorded server-side: %llu)\n",
              trace_arm.off_rps_best, trace_arm.on_rps_best,
              trace_arm.overhead_pct,
              static_cast<unsigned long long>(trace_arm.spans_recorded));

  const serve::CacheStats cache = server.router().cache_stats();
  server.stop();

  const double cache_hit_rate = cache.hit_rate();
  std::printf("\nverdict cache (all shards): hit_rate=%.3f hits=%llu "
              "misses=%llu stale=%llu inserts=%llu occupancy=%zu/%zu\n",
              cache_hit_rate,
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.stale),
              static_cast<unsigned long long>(cache.inserts),
              cache.occupancy, cache.capacity);

  util::TextTable table({"offered_rps", "achieved_rps", "conns", "sent",
                         "answered", "shed", "lost", "corrupt", "p50_us",
                         "p95_us", "p99_us", "p999_us"});
  for (const RateResult& r : results) {
    char offered[24], achieved[24], p50[24], p95[24], p99[24], p999[24];
    std::snprintf(offered, sizeof(offered), "%.0f", r.offered_rps);
    std::snprintf(achieved, sizeof(achieved), "%.0f", r.achieved_rps);
    std::snprintf(p50, sizeof(p50), "%.0f", r.p50_us);
    std::snprintf(p95, sizeof(p95), "%.0f", r.p95_us);
    std::snprintf(p99, sizeof(p99), "%.0f", r.p99_us);
    std::snprintf(p999, sizeof(p999), "%.0f", r.p999_us);
    table.add_row({offered, achieved, std::to_string(r.connections),
                   std::to_string(r.sent), std::to_string(r.answered),
                   std::to_string(r.shed), std::to_string(r.lost),
                   std::to_string(r.corrupted), p50, p95, p99, p999});
  }
  std::printf("\nnet saturation (latency vs offered load):\n%s",
              table.render().c_str());

  std::string json = "{\n";
  json += "  \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"connections\": " + std::to_string(connections) + ",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"unique_sessions\": " + std::to_string(unique_sessions) + ",\n";
  {
    char entry[512];
    std::snprintf(
        entry, sizeof(entry),
        "  \"cache\": {\"capacity_per_shard\": %zu, \"hit_rate\": %.4f, "
        "\"hits\": %llu, \"misses\": %llu, \"stale\": %llu, "
        "\"evictions\": %llu, \"inserts\": %llu, \"occupancy\": %zu},\n",
        static_cast<std::size_t>(config.router.engine.cache_capacity),
        cache_hit_rate, static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.stale),
        static_cast<unsigned long long>(cache.evictions),
        static_cast<unsigned long long>(cache.inserts), cache.occupancy);
    json += entry;
  }
  {
    const auto arm_json = [](const char* name, const FaultArmResult& arm,
                             double hedge_delay_ms) {
      char entry[512];
      std::snprintf(
          entry, sizeof(entry),
          "    \"%s\": {\"hedge_delay_ms\": %.0f, \"calls\": %zu, "
          "\"lost\": %zu, \"corrupted\": %zu, \"p50_micros\": %.1f, "
          "\"p99_micros\": %.1f, \"attempts\": %llu, \"hedges\": %llu, "
          "\"hedge_wins\": %llu, \"stalls_injected\": %llu}",
          name, hedge_delay_ms, arm.calls, arm.lost, arm.corrupted,
          arm.p50_us, arm.p99_us,
          static_cast<unsigned long long>(arm.client.attempts),
          static_cast<unsigned long long>(arm.client.hedges),
          static_cast<unsigned long long>(arm.client.hedge_wins),
          static_cast<unsigned long long>(arm.chaos.delays));
      return std::string(entry);
    };
    json += "  \"fault_arm\": {\n";
    json += "    \"delay_probability\": 0.01, \"delay_ms\": 40,\n";
    json += arm_json("unhedged", unhedged, 0.0) + ",\n";
    json += arm_json("hedged", hedged, 5.0) + "\n";
    json += "  },\n";
  }
  {
    char entry[512];
    std::snprintf(
        entry, sizeof(entry),
        "  \"trace_arm\": {\"runs\": %d, \"calls_per_run\": %zu, "
        "\"sample_rate\": 0.01, \"off_rps_best\": %.1f, "
        "\"on_rps_best\": %.1f, \"overhead_pct\": %.2f, "
        "\"spans_recorded\": %llu, \"lost\": %zu, \"corrupted\": %zu},\n",
        trace_runs, trace_total, trace_arm.off_rps_best,
        trace_arm.on_rps_best, trace_arm.overhead_pct,
        static_cast<unsigned long long>(trace_arm.spans_recorded),
        trace_arm.lost, trace_arm.corrupted);
    json += entry;
  }
  {
    char entry[512];
    std::snprintf(
        entry, sizeof(entry),
        "  \"profiler_arm\": {\"offered_rps\": %.0f, \"requests\": %zu, "
        "\"window_samples\": %llu, \"serve_samples\": %llu, "
        "\"serve_tagged\": %llu, \"attributed_fraction\": %.4f, "
        "\"gate_fraction\": %.2f, \"within_gate\": %s, \"enforced\": %s, "
        "\"lost\": %zu, \"corrupted\": %zu},\n",
        prof_rate, prof_total,
        static_cast<unsigned long long>(prof_window.total()),
        static_cast<unsigned long long>(serve_samples),
        static_cast<unsigned long long>(serve_tagged), attributed_fraction,
        kAttributionGate, attribution_ok ? "true" : "false",
        attribution_enforced ? "true" : "false", prof_run.lost,
        prof_run.corrupted);
    json += entry;
  }
  json += "  \"rates\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RateResult& r = results[i];
    char entry[512];
    std::snprintf(
        entry, sizeof(entry),
        "    {\"offered_rps\": %.0f, \"achieved_rps\": %.1f, "
        "\"seconds\": %.3f, \"sent\": %zu, \"answered\": %zu, "
        "\"shed\": %zu, \"lost\": %zu, \"corrupted\": %zu, "
        "\"p50_micros\": %.1f, \"p95_micros\": %.1f, \"p99_micros\": %.1f, "
        "\"p999_micros\": %.1f}%s\n",
        r.offered_rps, r.achieved_rps, r.seconds, r.sent, r.answered, r.shed,
        r.lost, r.corrupted, r.p50_us, r.p95_us, r.p99_us, r.p999_us,
        i + 1 == results.size() ? "" : ",");
    json += entry;
  }
  json += "  ]\n}\n";
  if (!util::write_file(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nJSON written to %s\n", json_path.c_str());

  // Acceptance: the plane answers everything it is offered — a request
  // is either scored or explicitly shed; nothing vanishes, nothing is
  // corrupted, at any offered load.
  std::size_t lost = 0, corrupted = 0, answered = 0;
  for (const RateResult& r : results) {
    lost += r.lost;
    corrupted += r.corrupted;
    answered += r.answered;
  }
  if (lost != 0 || corrupted != 0 || answered == 0) {
    std::fprintf(stderr,
                 "FAIL: %zu lost, %zu corrupted, %zu answered\n",
                 lost, corrupted, answered);
    return 1;
  }
  // The popularity stream guarantees repeat (fingerprint, UA) pairs; a
  // cache that never hit means the plane silently stopped using it.
  if (cache.hits == 0) {
    std::fprintf(stderr, "FAIL: verdict cache never hit under "
                         "popularity-skewed traffic\n");
    return 1;
  }
  // Fault-arm acceptance: both arms absorb every injected stall (zero
  // lost, zero corrupted), the chaos proxy actually injected stalls in
  // both, and the hedge bought back tail latency.
  if (unhedged.lost + unhedged.corrupted + hedged.lost + hedged.corrupted !=
      0) {
    std::fprintf(stderr,
                 "FAIL: fault arm dropped calls (unhedged lost=%zu "
                 "corrupted=%zu, hedged lost=%zu corrupted=%zu)\n",
                 unhedged.lost, unhedged.corrupted, hedged.lost,
                 hedged.corrupted);
    return 1;
  }
  if (unhedged.chaos.delays == 0 || hedged.chaos.delays == 0) {
    std::fprintf(stderr, "FAIL: chaos proxy injected no stalls — the fault "
                         "arm measured nothing\n");
    return 1;
  }
  if (hedged.client.hedge_wins == 0) {
    std::fprintf(stderr, "FAIL: no hedge ever won — the hedged arm is "
                         "indistinguishable from the unhedged one\n");
    return 1;
  }
  if (hedged.p99_us >= unhedged.p99_us) {
    std::fprintf(stderr,
                 "FAIL: hedging did not improve p99 under stalls "
                 "(hedged %.0fus >= unhedged %.0fus)\n",
                 hedged.p99_us, unhedged.p99_us);
    return 1;
  }
  // Profiler-arm acceptance: the plane must stay lossless while being
  // sampled, the sampler must actually have watched it (zero serve-side
  // samples means the arm measured nothing), and — once the window
  // holds enough samples to mean anything — at least half of the
  // serve-side samples must land on a named stage.
  if (prof_run.lost != 0 || prof_run.corrupted != 0) {
    std::fprintf(stderr,
                 "FAIL: profiler arm dropped calls (lost=%zu corrupted=%zu)\n",
                 prof_run.lost, prof_run.corrupted);
    return 1;
  }
  if (serve_samples == 0) {
    std::fprintf(stderr, "FAIL: profiler saw no serve-side samples — the "
                         "attribution arm measured nothing\n");
    return 1;
  }
  if (attribution_enforced && !attribution_ok) {
    std::fprintf(stderr,
                 "FAIL: only %.1f%% of serve-side samples attributed to "
                 "tagged stages (gate >= %.0f%%)\n",
                 100.0 * attributed_fraction, 100.0 * kAttributionGate);
    return 1;
  }
  // Trace-arm acceptance: tracing is free enough to leave on — every
  // request pays the wire-segment parse, 1% pay span recording, and
  // the plane must not give up more than 3% of its peak throughput.
  // Both arms must also stay lossless, and the sink must actually have
  // recorded spans (a zero here means the arm measured nothing).
  if (trace_arm.lost != 0 || trace_arm.corrupted != 0) {
    std::fprintf(stderr,
                 "FAIL: trace arm dropped calls (lost=%zu corrupted=%zu)\n",
                 trace_arm.lost, trace_arm.corrupted);
    return 1;
  }
  if (trace_arm.spans_recorded == 0) {
    std::fprintf(stderr, "FAIL: trace arm recorded no server-side spans — "
                         "the traced frames were not adopted\n");
    return 1;
  }
  if (trace_arm.overhead_pct >= 3.0) {
    std::fprintf(stderr,
                 "FAIL: tracing overhead %.2f%% >= 3%% "
                 "(off %.0f rps, on %.0f rps)\n",
                 trace_arm.overhead_pct, trace_arm.off_rps_best,
                 trace_arm.on_rps_best);
    return 1;
  }
  std::printf("zero lost, zero corrupted responses across the sweep; "
              "hedged p99 %.0fus < unhedged p99 %.0fus under stalls; "
              "tracing overhead %.2f%% < 3%%; %.1f%% of serve-side "
              "profile samples attributed\n",
              hedged.p99_us, unhedged.p99_us, trace_arm.overhead_pct,
              100.0 * attributed_fraction);
  return 0;
}
