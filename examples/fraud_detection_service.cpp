// fraud_detection_service: the deployment workload of §6.5 on the
// serving subsystem (src/serve).
//
// Offline, a model is trained and persisted; the serving tier reloads
// it and publishes it into a ModelRegistry.  A ScoringEngine (sharded
// worker pool over a bounded queue) then scores a live stream of
// sessions within the paper's ~100 ms budget, while:
//
//   * the drift module (§6.6) watches the Firefox/Chrome 119 era and
//     raises the retraining signal,
//   * a RetrainSupervisor runs the drift->train->validate->publish
//     cycle concurrently with serving and hot-swaps the new model
//     mid-stream with zero downtime — in-flight batches finish on the
//     version they hold; every response names the model version that
//     produced it, and
//   * with --listen, a live introspection plane (src/obs/introspect)
//     serves /metrics, /healthz, /readyz, /statusz, /tracez, /auditz
//     and the profiling endpoints over HTTP; /readyz folds the serving
//     tier's health signals (obs/health.h) on every request.
//
// Usage:
//   fraud_detection_service                     # batch demo, exits
//   fraud_detection_service --listen 127.0.0.1:0
//     Starts the introspection server before anything is published
//     (watch /readyz flip 503 -> 200 on the first publish), prints
//     "introspection server listening on <addr>:<port>", and after
//     the pipeline completes keeps serving until SIGINT/SIGTERM.
//   fraud_detection_service --score-listen 127.0.0.1:0
//     Additionally starts the network scoring plane (src/net): a
//     POST /score ingress in front of a sharded EngineRouter, up
//     before the first publish (early frames are refused at once with
//     503 "no model published"; they are scored from v1 on).  Prints
//     "score server listening on <addr>:<port>".  Try (one line):
//       curl -s --data-binary 'bp1|7|Chrome 112|0 0 0 0 0 0 0 0 0 0 0 0 0
//         0 0 0 0 0 0 0 0 0 0 0 0 0 0 0' http://<addr>:<port>/score
//
// Shutdown on SIGINT/SIGTERM is graceful and ordered: stop the score
// ingress (stop intake -> join handlers -> stop shards), stop the
// introspection server, then drain and stop the demo scoring engine.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/drift.h"
#include "core/model_io.h"
#include "net/score_server.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/introspect/server.h"
#include "obs/metrics_registry.h"
#include "obs/prof/contention.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/retrain_supervisor.h"
#include "serve/scoring_engine.h"
#include "traffic/session_generator.h"
#include "util/fault.h"
#include "util/table.h"

namespace {

std::atomic<int> g_signal{0};

void handle_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

bool signalled() { return g_signal.load(std::memory_order_relaxed) != 0; }

// --listen / --score-listen take <addr:port> or <port> (addr defaults
// to loopback; port 0 binds ephemerally and the chosen port is
// printed).
struct ListenSpec {
  bool enabled = false;
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;
};

bool parse_listen_value(const char* flag, const std::string& value,
                        ListenSpec* spec) {
  spec->enabled = true;
  const std::size_t colon = value.rfind(':');
  const std::string port_part =
      colon == std::string::npos ? value : value.substr(colon + 1);
  if (colon != std::string::npos && colon > 0) {
    spec->address = value.substr(0, colon);
  }
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_part.c_str(), &end, 10);
  if (end == port_part.c_str() || *end != '\0' || port > 65535) {
    std::fprintf(stderr, "invalid %s value '%s'\n", flag, value.c_str());
    return false;
  }
  spec->port = static_cast<std::uint16_t>(port);
  return true;
}

bool parse_args(int argc, char** argv, ListenSpec* listen,
                ListenSpec* score_listen, bool* soak) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      if (!parse_listen_value("--listen", argv[++i], listen)) return false;
      continue;
    }
    if (arg == "--score-listen" && i + 1 < argc) {
      if (!parse_listen_value("--score-listen", argv[++i], score_listen)) {
        return false;
      }
      continue;
    }
    if (arg == "--soak") {
      *soak = true;
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--listen <addr:port|port>] "
                 "[--score-listen <addr:port|port>] [--soak]\n",
                 argv[0]);
    return false;
  }
  return true;
}

// Everything the risk dashboard accumulates from responses.  The
// callback runs on worker threads, so state is folded under one mutex
// (cheap next to scoring; ServeMetrics handles the hot counters).
struct Dashboard {
  std::mutex mutex;
  std::map<int, std::size_t> risk_histogram;
  std::map<std::uint64_t, std::size_t> scored_by_version;
  std::size_t flagged = 0;
  std::size_t flagged_ato = 0;
};

bp::core::Polygraph train_model(const bp::traffic::TrafficConfig& config,
                                const bp::obs::ObsContext* obs = nullptr) {
  bp::traffic::SessionGenerator generator(config);
  const bp::traffic::Dataset history =
      generator.generate(bp::traffic::experiment_feature_indices());
  bp::core::Polygraph model;
  const bp::ml::Matrix features =
      history.feature_matrix(model.config().feature_indices);
  std::vector<bp::ua::UserAgent> uas;
  uas.reserve(history.size());
  for (const auto& r : history.records()) uas.push_back(r.claimed);
  const auto summary = model.train(features, uas, obs);
  std::printf("  trained: %.2f%% accuracy on %zu sessions\n",
              100.0 * summary.clustering_accuracy, summary.rows_total);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bp;

  ListenSpec listen;
  ListenSpec score_listen;
  bool soak = false;
  if (!parse_args(argc, argv, &listen, &score_listen, &soak)) return 2;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // ---- the observability plane (src/obs), production posture ----
  // One process-wide registry shared by training, serving, drift and
  // the fault layer; a 1%-sampled request trace; a full-rate sink for
  // the offline training runs; an audit trail holding Algorithm-1
  // evidence for every flagged verdict (1% of clean ones).
  obs::MetricsRegistry metrics;
  obs::register_fault_metrics(metrics);
  obs::TraceSinkConfig request_trace_config;
  request_trace_config.sample_rate = 0.01;
  obs::TraceSink request_trace(request_trace_config);
  obs::TraceSink training_trace;
  obs::AuditTrail audit;

  // ---- serving tier, constructed before anything is published ----
  // The engine idles (and /readyz answers 503) until the first
  // publish lands; liveness is reachable the whole time.
  constexpr std::size_t kPhaseA = 25'000;   // pre-drift era traffic
  constexpr std::size_t kPhaseB1 = 10'000;  // drift era, old model serving
  constexpr std::size_t kPhaseB2 = 15'000;  // drift era, after the hot swap
  constexpr std::size_t kStream = kPhaseA + kPhaseB1 + kPhaseB2;

  std::vector<std::uint8_t> session_ato(kStream, 0);
  Dashboard dashboard;

  serve::ModelRegistry registry;
  serve::EngineConfig engine_config;
  engine_config.workers = 4;
  engine_config.queue_capacity = 1024;
  engine_config.max_batch = 32;
  engine_config.overflow_policy = serve::OverflowPolicy::kBlock;
  // Content-addressed verdict cache: the demo's traffic stream replays
  // popular (fingerprint, UA) sessions, so repeat verdicts answer at
  // submit() without touching the queue.  /statusz shows the hit rate.
  engine_config.cache_capacity = 4096;
  engine_config.registry = &metrics;
  engine_config.trace = &request_trace;
  engine_config.audit = &audit;
  serve::ScoringEngine engine(
      registry, engine_config, [&](const serve::ScoreResponse& response) {
        if (response.status != serve::ResponseStatus::kScored) return;
        std::lock_guard lock(dashboard.mutex);
        ++dashboard.scored_by_version[response.model_version];
        if (!response.detection.flagged) return;
        ++dashboard.flagged;
        // Soak-mode ids start past the pipeline's range; they carry no
        // ground-truth label.
        if (response.id < session_ato.size()) {
          dashboard.flagged_ato += session_ato[response.id];
        }
        ++dashboard.risk_histogram[response.detection.risk_factor];
      });

  // ---- retraining supervisor (§6.6 made survivable) ----
  // The drift detector raises `drift_flag`; the supervisor owns the
  // retrain -> validate -> hot-swap cycle, with retry/backoff and a
  // breaker that health reporting surfaces.
  std::atomic<bool> drift_flag{false};
  serve::RetrainConfig retrain_cfg;
  retrain_cfg.registry = &metrics;
  retrain_cfg.trace = &training_trace;
  serve::RetrainSupervisor supervisor(
      registry, retrain_cfg,
      [&] { return drift_flag.load(std::memory_order_relaxed); },
      [&]() -> std::optional<core::Polygraph> {
        std::printf("retraining in the background (Mar-Nov window):\n");
        traffic::TrafficConfig retrain_config;
        retrain_config.seed = 20231104;
        retrain_config.n_sessions = 20'000;
        retrain_config.end_date = util::Date::from_ymd(2023, 11, 3);
        const obs::ObsContext retrain_obs{&metrics, &training_trace, 2};
        return train_model(retrain_config, &retrain_obs);
      },
      [](const core::Polygraph& m) { return m.trained(); });

  // ---- health signals: the serving tier's accessors, folded into
  // readiness by /readyz, /statusz and the final rollup ----
  const auto health_signals = [&] {
    obs::HealthSignals s;
    const serve::SupervisorStatus st = supervisor.status();
    s.model_version = registry.version();
    s.breaker_open = st.breaker_open;
    s.staleness_cycles = st.staleness_cycles;
    s.quarantined = registry.quarantined();
    s.queue_depth = engine.queue_depth();
    s.queue_capacity = engine_config.queue_capacity;
    s.armed_faults = static_cast<std::uint64_t>(
        util::FaultRegistry::instance().armed_points());
    return s;
  };

  // Declared before the introspection server so statusz_extra's
  // by-reference capture is valid and the introspection server (which
  // reads the router's cache stats per scrape) is destroyed first.
  std::optional<net::ScoreServer> score_server;

  // ---- continuous profiler: wall + CPU sampling over every plane ----
  // Started only alongside --listen (its consumers are /profilez and
  // /profilez.json); batch runs pay nothing.
  obs::prof::Profiler profiler;
  if (listen.enabled) {
    profiler.start({});
  }

  // ---- live introspection (--listen): up before the first publish ----
  std::optional<obs::introspect::IntrospectionServer> server;
  if (listen.enabled) {
    obs::introspect::Sources sources;
    sources.metrics = &metrics;
    sources.trace = &request_trace;
    sources.audit = &audit;
    sources.health = health_signals;
    sources.profiler = &profiler;
    sources.contention = &obs::prof::ContentionRegistry::instance();
    sources.statusz_extra = [&] {
      std::string extra;
      {
        std::lock_guard lock(dashboard.mutex);
        extra = "flagged: " + std::to_string(dashboard.flagged) + "\n";
        for (const auto& [version, count] : dashboard.scored_by_version) {
          extra += "model v" + std::to_string(version) + " scored " +
                   std::to_string(count) + "\n";
        }
      }
      // Verdict-cache health: hit rate and slot occupancy for the demo
      // engine (and the score server's sharded fold when it is up).
      const serve::CacheStats cache = engine.cache_stats();
      char line[160];
      std::snprintf(line, sizeof(line),
                    "verdict cache: hit_rate=%.3f occupancy=%zu/%zu\n",
                    cache.hit_rate(), cache.occupancy, cache.capacity);
      extra += line;
      if (score_server) {
        const serve::CacheStats net_cache = score_server->router().cache_stats();
        std::snprintf(line, sizeof(line),
                      "net verdict cache: hit_rate=%.3f occupancy=%zu/%zu\n",
                      net_cache.hit_rate(), net_cache.occupancy,
                      net_cache.capacity);
        extra += line;
      }
      // How full the SoA batch kernel runs: one entry per histogram
      // bucket that saw a drain ("<=N: count", "<=N" being the bucket's
      // inclusive upper bound in the obs::hist layout).
      const serve::MetricsSnapshot snap = engine.metrics();
      extra += "batch sizes:";
      bool any = false;
      for (std::size_t b = 0; b < snap.batch_size_histogram.size(); ++b) {
        if (snap.batch_size_histogram[b] == 0) continue;
        any = true;
        if (b + 1 < obs::hist::kBuckets) {
          std::snprintf(line, sizeof(line), " <=%llu: %llu",
                        static_cast<unsigned long long>(obs::hist::upper(b)),
                        static_cast<unsigned long long>(
                            snap.batch_size_histogram[b]));
        } else {
          std::snprintf(line, sizeof(line), " >=%llu: %llu",
                        static_cast<unsigned long long>(obs::hist::lower(b)),
                        static_cast<unsigned long long>(
                            snap.batch_size_histogram[b]));
        }
        extra += line;
      }
      extra += any ? "\n" : " (none)\n";
      // Present only when the interposing operator-new TU is linked
      // into this binary (it is — see examples/CMakeLists.txt).
      if (obs::prof::alloc_hook_linked()) {
        const obs::prof::AllocCounts allocs = obs::prof::alloc_counts();
        extra += "alloc hook: linked, counting " +
                 std::string(obs::prof::alloc_counting() ? "on" : "off") +
                 ", allocations=" + std::to_string(allocs.allocations) +
                 " bytes=" + std::to_string(allocs.bytes) + "\n";
      }
      return extra;
    };
    net::ListenerConfig server_config;
    server_config.bind_address = listen.address;
    server_config.port = listen.port;
    server.emplace(std::move(sources), server_config);
    if (!server->running()) {
      std::fprintf(stderr, "introspection server failed: %s\n",
                   server->error().c_str());
      return 1;
    }
    std::printf("introspection server listening on %s:%u\n",
                listen.address.c_str(), server->port());
    std::fflush(stdout);
  }

  // ---- network scoring plane (--score-listen): POST /score over TCP ----
  // Sharded EngineRouter behind the shared HTTP listener, sharing the
  // demo's ModelRegistry — a hot swap lands on both planes atomically.
  // Up before the first publish: until then every frame is refused at
  // once with 503 "no model published", never hung.
  if (score_listen.enabled) {
    net::ScoreServerConfig score_config;
    score_config.listener.bind_address = score_listen.address;
    score_config.listener.port = score_listen.port;
    score_config.listener.handler_threads = 4;
    score_config.router.shards = 2;
    // Frames are scored inline on the handler threads; shard workers
    // only serve in-process submit(), which the ingress never calls.
    score_config.router.engine.workers = 1;
    score_config.router.engine.cache_capacity = 4096;  // per shard
    score_config.router.engine.registry = &metrics;
    score_config.router.engine.metrics_prefix = "bp_net";
    // Cross-hop tracing: frames arriving with a t: trace context get
    // their server-side spans (request, queue wait, kernel, serialize)
    // recorded into the same sink /tracez serves — paste a
    // client's trace id into /tracez?trace=<id> to see this half.
    score_config.router.engine.trace = &request_trace;
    score_config.registry = &metrics;
    // Arm the wire-layer feature-count check with the production width
    // (PolygraphConfig's *default-constructed* index list is empty; the
    // Polygraph ctor and production() both resolve it to the Table 8
    // set the demo's model is trained with).
    score_config.expected_features =
        core::PolygraphConfig::production().feature_indices.size();
    score_server.emplace(registry, std::move(score_config));
    if (!score_server->running()) {
      std::fprintf(stderr, "score server failed: %s\n",
                   score_server->error().c_str());
      if (server) server->stop();
      return 1;
    }
    std::printf("score server listening on %s:%u (%zu shards)\n",
                score_listen.address.c_str(), score_server->port(),
                score_server->router().shards());
    std::fflush(stdout);
  }

  // Ordered graceful teardown, shared by the signal path and the
  // normal exit: stop the score ingress (its stop() is itself ordered:
  // stop intake -> join handlers -> stop shards), stop taking scrapes,
  // drain what the demo engine admitted, then stop its workers.
  const auto graceful_shutdown = [&] {
    if (score_server) score_server->stop();
    if (server) server->stop();
    engine.drain();
    engine.stop();
  };

  // ---- offline: train and persist (§6.5's offline/online split) ----
  std::printf("offline training (Mar-Jul 2023 window):\n");
  traffic::TrafficConfig train_config;
  train_config.n_sessions = 40'000;
  const obs::ObsContext train_obs{&metrics, &training_trace, 1};
  const core::Polygraph trained = train_model(train_config, &train_obs);

  const std::string model_path = "/tmp/browser_polygraph.model";
  if (!core::save_model(trained, model_path)) {
    std::fprintf(stderr, "failed to persist model\n");
    graceful_shutdown();
    return 1;
  }

  // ---- online: load, validate, publish, serve ----
  // publish_from_file is fail-closed: the file is checksummed and
  // validated end to end before any swap, and a bad artifact is
  // quarantined aside with a typed reason (try it:
  // BP_FAULTS=model_io.read:1 makes this load fail deterministically).
  // The publish is also the moment /readyz flips from 503 to 200.
  const serve::PublishReport publish_report =
      registry.publish_from_file(model_path);
  if (!publish_report) {
    std::fprintf(stderr, "refusing to serve: %s%s%s\n",
                 publish_report.error->message().c_str(),
                 publish_report.quarantined_to.empty() ? "" : "; quarantined to ",
                 publish_report.quarantined_to.c_str());
    graceful_shutdown();
    return 1;
  }
  const std::uint64_t v1 = publish_report.version;
  std::printf("model persisted to %s, validated and published as v%llu\n\n",
              model_path.c_str(), static_cast<unsigned long long>(v1));

  const auto& indices = trained.config().feature_indices;
  std::uint64_t next_id = 0;
  // Returns false when a shutdown signal arrived mid-stream.
  const auto stream_sessions = [&](traffic::SessionGenerator& generator,
                                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (signalled()) return false;
      traffic::SessionRecord session = generator.next_session(indices);
      session_ato[next_id] = session.ato ? 1 : 0;
      serve::ScoreRequest request;
      request.id = next_id++;
      request.features = std::move(session.features);
      request.claimed = session.claimed;
      if (engine.submit(std::move(request)) != serve::SubmitResult::kAdmitted) {
        std::fprintf(stderr, "submission failed\n");
        std::exit(1);
      }
    }
    return true;
  };

  // ---- phase A: the stable summer (no new-era releases) ----
  traffic::TrafficConfig live_config;
  live_config.seed = 0x117E2024;
  live_config.start_date = util::Date::from_ymd(2023, 7, 20);
  live_config.end_date = util::Date::from_ymd(2023, 9, 30);
  traffic::SessionGenerator live(live_config);
  if (!stream_sessions(live, kPhaseA)) {
    std::printf("shutdown signal received mid-stream; draining\n");
    graceful_shutdown();
    return 0;
  }
  engine.drain();
  std::printf("phase A (stable era): %s\n\n", engine.metrics().summary().c_str());

  // A supervision cycle with no drift: staleness grows by one, the
  // frozen model keeps serving.
  if (supervisor.run_cycle() != serve::CycleResult::kNoDrift) {
    std::fprintf(stderr, "expected a no-drift cycle in the stable era\n");
    return 1;
  }

  // ---- drift check (§6.6): the 119 era arrives ----
  traffic::TrafficConfig drift_config;
  drift_config.seed = 20231103;
  drift_config.n_sessions = 15'000;
  drift_config.start_date = util::Date::from_ymd(2023, 10, 20);
  drift_config.end_date = util::Date::from_ymd(2023, 11, 3);
  traffic::SessionGenerator drift_generator(drift_config);
  const traffic::Dataset drift_data =
      drift_generator.generate(traffic::experiment_feature_indices());

  const core::DriftDetector detector(trained, 0.98, &metrics);
  const core::DriftReport report = detector.check(
      drift_data,
      {{ua::Vendor::kFirefox, 119, ua::Os::kWindows10},
       {ua::Vendor::kChrome, 119, ua::Os::kWindows10}},
      util::Date::from_ymd(2023, 11, 2));
  for (const auto& entry : report.entries) {
    std::printf("drift check %s: accuracy %.1f%%%s%s\n",
                entry.release.label().c_str(), 100.0 * entry.accuracy,
                entry.cluster_changed ? " [cluster changed]" : "",
                entry.accuracy_below_threshold ? " [below threshold]" : "");
  }
  if (!report.retraining_required) {
    std::fprintf(stderr, "expected the 119 era to trigger retraining\n");
    return 1;
  }
  drift_flag.store(true, std::memory_order_relaxed);
  std::printf("retraining signal raised; serving continues on v%llu\n\n",
              static_cast<unsigned long long>(registry.version()));

  // ---- phase B: drift-era traffic; supervised retrain + hot swap ----
  traffic::TrafficConfig live_b_config;
  live_b_config.seed = 0x117E2025;
  live_b_config.start_date = util::Date::from_ymd(2023, 10, 20);
  live_b_config.end_date = util::Date::from_ymd(2023, 11, 3);
  traffic::SessionGenerator live_b(live_b_config);

  std::thread retrainer([&] {
    const serve::CycleResult result = supervisor.run_cycle();
    if (result != serve::CycleResult::kPublished) {
      const std::string_view name = serve::cycle_result_name(result);
      std::fprintf(stderr, "retrain cycle did not publish: %.*s\n",
                   static_cast<int>(name.size()), name.data());
    }
  });

  const bool phase_b1_done = stream_sessions(live_b, kPhaseB1);
  retrainer.join();
  if (!phase_b1_done) {
    std::printf("shutdown signal received mid-stream; draining\n");
    graceful_shutdown();
    return 0;
  }
  const std::uint64_t v2 = supervisor.status().last_published_version;
  std::printf("hot-swapped to v%llu mid-stream (engine never paused)\n\n",
              static_cast<unsigned long long>(v2));
  if (!stream_sessions(live_b, kPhaseB2)) {  // served by the fresh model
    std::printf("shutdown signal received mid-stream; draining\n");
    graceful_shutdown();
    return 0;
  }
  engine.drain();

  const serve::MetricsSnapshot snapshot = engine.metrics();
  std::printf("phase B (drift era):  %s\n", snapshot.summary().c_str());

  // ---- the risk team's view ----
  {
    std::lock_guard lock(dashboard.mutex);
    std::printf("\nserved %zu sessions, flagged %zu (%.2f%%), of which %zu "
                "became ATO within 72h\n",
                kStream, dashboard.flagged,
                100.0 * dashboard.flagged / kStream, dashboard.flagged_ato);
    for (const auto& [version, count] : dashboard.scored_by_version) {
      std::printf("  model v%llu scored %zu sessions\n",
                  static_cast<unsigned long long>(version), count);
    }
    if (dashboard.scored_by_version.size() < 2) {
      std::fprintf(stderr, "expected sessions under both model versions\n");
      return 1;
    }

    util::TextTable table({"risk_factor", "sessions"});
    for (const auto& [risk, count] : dashboard.risk_histogram) {
      table.add_row({std::to_string(risk), std::to_string(count)});
    }
    std::printf("\nrisk-factor histogram of flagged sessions:\n%s",
                table.render().c_str());
    std::printf(
        "\nA risk-based-authentication system consumes these factors as one\n"
        "signal among many: risk 0-1 near-misses are soft signals, vendor\n"
        "mismatches (risk %d) warrant step-up authentication.\n",
        trained.config().vendor_distance);
  }

  // ---- the SRE's view: one registry over the whole deployment ----
  std::printf("\ntraces: %llu request-path records in the ring "
              "(%llu displaced), 1%% deterministic sampling\n",
              static_cast<unsigned long long>(request_trace.recorded()),
              static_cast<unsigned long long>(request_trace.overwritten()));
  std::printf("audit: %llu verdicts recorded (%llu flagged), each "
              "replayable offline against its model version\n",
              static_cast<unsigned long long>(audit.recorded()),
              static_cast<unsigned long long>(audit.flagged_recorded()));
  std::printf("\ntraining stage spans (trace 1 = initial, 2 = retrain):\n%s",
              training_trace.render(/*include_timing=*/true).c_str());
  std::printf("\nhealth rollup:\n%s",
              obs::fold(health_signals()).detail.c_str());
  std::printf("\ntelemetry (Prometheus exposition):\n%s",
              metrics.render_prometheus().c_str());

  if (!snapshot.within_budget()) {
    std::fprintf(stderr, "p99 latency exceeded the 100 ms budget\n");
    return 1;
  }

  // With --listen / --score-listen the pipeline's end is not the
  // service's end: keep the network planes up until a signal arrives.
  if (server || score_server) {
    if (server) {
      std::printf("\npipeline complete; introspection server still listening "
                  "on %s:%u — SIGINT/SIGTERM to exit\n",
                  listen.address.c_str(), server->port());
    }
    if (score_server) {
      std::printf("%sscore server still answering POST /score on %s:%u — "
                  "SIGINT/SIGTERM to exit\n",
                  server ? "" : "\npipeline complete; ",
                  score_listen.address.c_str(), score_server->port());
    }
    // --soak keeps the scoring kernel hot while listening: a background
    // stream of sessions, each with one feature perturbed so the
    // content-addressed verdict cache never absorbs it.  A /profilez
    // window opened against the live service then has real serve.*
    // work to attribute instead of an idle queue.
    std::thread soak_thread;
    if (soak) {
      soak_thread = std::thread([&] {
        traffic::TrafficConfig soak_config;
        soak_config.seed = 0x50AC;
        traffic::SessionGenerator soak_traffic(soak_config);
        std::uint64_t soak_id = kStream;
        std::int32_t spin = 0;
        while (!signalled()) {
          traffic::SessionRecord session = soak_traffic.next_session(indices);
          serve::ScoreRequest request;
          request.id = soak_id++;
          request.features = std::move(session.features);
          if (!request.features.empty()) request.features[0] ^= ++spin;
          request.claimed = session.claimed;
          // kBlock overflow self-paces against the workers; anything
          // short of admission just means the next iteration retries.
          (void)engine.submit(std::move(request));
        }
      });
      std::printf("soak traffic running: cache-busting sessions keep the "
                  "scoring kernel busy for live profiling\n");
    }
    std::fflush(stdout);
    while (!signalled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("shutdown signal received; stopping\n");
    if (soak_thread.joinable()) soak_thread.join();
  }
  graceful_shutdown();
  return 0;
}
