// score_client: the resilient scoring client (net/score_client.h)
// against a real POST /score ingress, exercised through every failure
// mode it is built for (DESIGN.md §15).
//
//   1. clean path       — keep-alive pooled connections, one verdict
//                         per call;
//   2. injected faults  — the process-wide fault registry (util/fault.h)
//                         arms deterministic connection resets on the
//                         socket seam; retries absorb them inside the
//                         call deadline;
//   3. hedged tail      — a chaos proxy stalls ~8% of response chunks
//                         by 60 ms; a 10 ms hedge races a second
//                         attempt and the first verdict wins;
//   4. circuit breaker  — calls against a dead port fail fast, open
//                         the breaker, and are short-circuited without
//                         touching the network until the cooldown
//                         elapses.
//
// Every call ends in a *typed* outcome — the demo exits non-zero if
// any call hangs past its deadline or a verdict fails validation.
//
// Cross-hop mode (--connect <host:port>): instead of the in-process
// demo, score production-width sessions against an external ingress
// (e.g. fraud_detection_service --score-listen) with tracing armed —
// every call prints its minted trace id, and with --listen the
// client's own introspection plane serves /tracez?trace=<id> so the
// same id can be pulled up on both sides of the wire.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/polygraph.h"
#include "net/chaos_proxy.h"
#include "net/score_client.h"
#include "net/score_server.h"
#include "obs/introspect/server.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "util/fault.h"

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true, std::memory_order_release); }

// "<addr>:<port>" or "<port>" (addr defaults to 127.0.0.1).
bool parse_host_port(const std::string& value, std::string* addr,
                     std::uint16_t* port) {
  std::string port_part = value;
  const std::size_t colon = value.rfind(':');
  if (colon != std::string::npos) {
    *addr = value.substr(0, colon);
    port_part = value.substr(colon + 1);
  }
  if (port_part.empty()) return false;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(port_part.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || parsed > 65535) return false;
  *port = static_cast<std::uint16_t>(parsed);
  return true;
}

void print_stats(const char* label, const bp::net::ScoreClientStats& stats);

// Cross-hop mode: trace-armed calls against an external ingress.
int run_connect(const std::string& host, std::uint16_t port, int calls,
                bool listen_enabled, const std::string& listen_addr,
                std::uint16_t listen_port) {
  bp::obs::TraceSinkConfig trace_config;
  trace_config.capacity = 4096;
  trace_config.sample_rate = 1.0;  // the demo wants every trace visible
  bp::obs::TraceSink trace(trace_config);
  bp::obs::MetricsRegistry registry;

  bp::net::ScoreClientConfig config;
  config.host = host;
  config.port = port;
  config.io_timeout = std::chrono::milliseconds(2'000);
  config.deadline = std::chrono::milliseconds(5'000);
  config.max_attempts = 8;
  config.initial_backoff = std::chrono::milliseconds(5);
  config.max_backoff = std::chrono::milliseconds(100);
  config.hedge_delay = std::chrono::milliseconds(50);
  config.trace = &trace;
  config.registry = &registry;
  bp::net::ScoreClient client(config);

  // Production-width frames: the external ingress arms its wire-layer
  // feature-count check with the Table 8 set.
  const std::vector<std::int32_t> features(
      bp::core::PolygraphConfig::production().feature_indices.size(), 0);

  int failures = 0;
  for (int i = 0; i < calls; ++i) {
    const std::uint64_t session = static_cast<std::uint64_t>(i) + 1;
    const bp::net::ScoreCallResult result =
        client.score(session, "Chrome 112", features);
    const bool ok = result.outcome == bp::net::ScoreClientOutcome::kOk &&
                    result.response.session_id == session;
    if (!ok) ++failures;
    std::printf("session %llu trace=%llu sampled=%d attempts=%d %s\n",
                static_cast<unsigned long long>(session),
                static_cast<unsigned long long>(result.trace_id),
                result.trace_sampled ? 1 : 0, result.attempts,
                ok ? "scored"
                   : std::string(bp::net::score_client_outcome_name(
                                     result.outcome))
                         .c_str());
  }
  print_stats("cross-hop", client.stats());
  std::fflush(stdout);

  // With --listen, keep the client half of the trace scrapeable until
  // SIGINT: /tracez?trace=<id> here shows the client_call/attempt
  // spans, the same query on the server's introspection port shows the
  // request/queue/kernel half.
  if (listen_enabled) {
    bp::obs::introspect::Sources sources;
    sources.metrics = &registry;
    sources.trace = &trace;
    bp::net::ListenerConfig server_config;
    server_config.bind_address = listen_addr;
    server_config.port = listen_port;
    bp::obs::introspect::IntrospectionServer server(sources, server_config);
    if (!server.running()) {
      std::fprintf(stderr, "client introspection failed: %s\n",
                   server.error().c_str());
      return 1;
    }
    std::printf("client introspection listening on %s:%u\n",
                listen_addr.c_str(), server.port());
    std::fflush(stdout);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
  }
  return failures == 0 ? 0 : 1;
}

bp::core::Polygraph tiny_model() {
  bp::core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;
  bp::ml::Matrix centroids(2, 2);
  centroids(1, 0) = 10.0;
  centroids(1, 1) = 10.0;
  bp::ml::KMeansConfig kconfig;
  kconfig.k = 2;
  bp::core::ClusterTable table;
  table.assign({bp::ua::Vendor::kChrome, 100, bp::ua::Os::kWindows10}, 0);
  return bp::core::Polygraph::from_parts(
      config,
      bp::ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      bp::ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0},
                               bp::ml::Matrix::identity(2)),
      bp::ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

bp::net::ScoreClientConfig base_config(std::uint16_t port) {
  bp::net::ScoreClientConfig config;
  config.port = port;
  config.io_timeout = std::chrono::milliseconds(500);
  config.deadline = std::chrono::milliseconds(4'000);
  config.max_attempts = 8;
  config.initial_backoff = std::chrono::milliseconds(2);
  config.max_backoff = std::chrono::milliseconds(20);
  return config;
}

// Score `calls` sessions; returns how many did not end kOk with a
// correct verdict.
int drive(bp::net::ScoreClient& client, int calls) {
  int bad = 0;
  for (int i = 0; i < calls; ++i) {
    const std::uint64_t session = static_cast<std::uint64_t>(i) + 1;
    const bool fraud = session % 2 == 0;
    const std::int32_t clean[] = {0, 0};
    const std::int32_t bot[] = {10, 10};
    const bp::net::ScoreCallResult result =
        client.score(session, "Chrome 100", fraud ? bot : clean);
    if (result.outcome != bp::net::ScoreClientOutcome::kOk ||
        result.response.session_id != session ||
        result.response.flagged != fraud) {
      ++bad;
      std::printf("  session %llu failed: %s\n",
                  static_cast<unsigned long long>(session),
                  result.error.empty() ? "bad verdict" : result.error.c_str());
    }
  }
  return bad;
}

void print_stats(const char* label, const bp::net::ScoreClientStats& stats) {
  std::printf("%s: calls=%llu attempts=%llu retries=%llu hedges=%llu "
              "hedge_wins=%llu transport_errors=%llu short_circuits=%llu\n",
              label, static_cast<unsigned long long>(stats.calls),
              static_cast<unsigned long long>(stats.attempts),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.hedges),
              static_cast<unsigned long long>(stats.hedge_wins),
              static_cast<unsigned long long>(stats.transport_errors),
              static_cast<unsigned long long>(stats.breaker_short_circuits));
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_host = "127.0.0.1";
  std::uint16_t connect_port = 0;
  bool connect_mode = false;
  std::string listen_addr = "127.0.0.1";
  std::uint16_t listen_port = 0;
  bool listen_enabled = false;
  int calls = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      if (!parse_host_port(argv[++i], &connect_host, &connect_port)) {
        std::fprintf(stderr, "bad --connect value: %s\n", argv[i]);
        return 2;
      }
      connect_mode = true;
    } else if (arg == "--listen" && i + 1 < argc) {
      if (!parse_host_port(argv[++i], &listen_addr, &listen_port)) {
        std::fprintf(stderr, "bad --listen value: %s\n", argv[i]);
        return 2;
      }
      listen_enabled = true;
    } else if (arg == "--calls" && i + 1 < argc) {
      calls = std::atoi(argv[++i]);
      if (calls <= 0) {
        std::fprintf(stderr, "bad --calls value: %s\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connect <host:port> [--calls N] "
                   "[--listen <addr:port|port>]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (connect_mode) {
    return run_connect(connect_host, connect_port, calls, listen_enabled,
                       listen_addr, listen_port);
  }

  bp::serve::ModelRegistry models;
  models.publish(tiny_model());
  bp::net::ScoreServerConfig server_config;
  server_config.router.shards = 2;
  server_config.router.engine.workers = 1;
  server_config.expected_features = 2;
  server_config.listener.handler_threads = 4;
  bp::net::ScoreServer server(models, server_config);
  if (!server.running()) {
    std::fprintf(stderr, "score server failed: %s\n", server.error().c_str());
    return 1;
  }
  int failures = 0;

  // ---- 1. clean path: pooled keep-alive scoring ----
  std::printf("== 1. clean path ==\n");
  {
    bp::net::ScoreClient client(base_config(server.port()));
    failures += drive(client, 20);
    print_stats("clean", client.stats());
  }

  // ---- 2. deterministic injected resets on the socket seam ----
  // Each reset surfaces as a typed transport error; the retry loop
  // replays the idempotent /score inside the same call deadline.
  std::printf("== 2. injected connection resets (5%% of recvs) ==\n");
  {
    bp::net::ScoreClient client(base_config(server.port()));
    {
      bp::util::ScopedFaults faults("net.sock.recv.reset:0.05:1234");
      failures += drive(client, 30);
    }
    print_stats("faulted", client.stats());
  }

  // ---- 3. hedged tail through a stalling chaos proxy ----
  std::printf("== 3. hedged requests under injected stalls ==\n");
  {
    bp::net::ChaosProxyConfig chaos_config;
    chaos_config.upstream_port = server.port();
    chaos_config.seed = 0x7EDE;
    chaos_config.fault_client_to_upstream = false;
    chaos_config.delay_probability = 0.08;
    chaos_config.delay = std::chrono::milliseconds(60);
    bp::net::ChaosProxy proxy(chaos_config);
    if (!proxy.running()) {
      std::fprintf(stderr, "chaos proxy failed: %s\n", proxy.error().c_str());
      return 1;
    }
    bp::net::ScoreClientConfig config = base_config(proxy.port());
    config.hedge_delay = std::chrono::milliseconds(10);
    bp::net::ScoreClient client(config);
    failures += drive(client, 40);
    proxy.stop();
    print_stats("hedged", client.stats());
  }

  // ---- 4. circuit breaker against a dead host ----
  // Find a port with nothing behind it by binding an ephemeral
  // listener and stopping it.
  std::printf("== 4. circuit breaker against a dead port ==\n");
  std::uint16_t dead_port;
  {
    bp::net::ScoreServerConfig dead_config;
    dead_config.router.shards = 1;
    dead_config.router.engine.workers = 1;
    bp::net::ScoreServer doomed(models, dead_config);
    dead_port = doomed.port();
    doomed.stop();
  }
  {
    bp::obs::MetricsRegistry registry;
    bp::net::ScoreClientConfig config = base_config(dead_port);
    config.max_attempts = 2;
    config.deadline = std::chrono::milliseconds(1'000);
    config.breaker_threshold = 2;
    config.breaker_cooldown = 4;
    config.registry = &registry;
    bp::net::ScoreClient client(config);
    const std::int32_t clean[] = {0, 0};
    for (int i = 0; i < 5; ++i) {
      const bp::net::ScoreCallResult result =
          client.score(static_cast<std::uint64_t>(i) + 1, "Chrome 100", clean);
      std::printf("  call %d: %s\n", i + 1,
                  result.outcome == bp::net::ScoreClientOutcome::kBreakerOpen
                      ? "short-circuited (breaker open)"
                      : "transport error (typed)");
      if (result.outcome == bp::net::ScoreClientOutcome::kOk) ++failures;
    }
    if (!client.breaker_open()) {
      std::fprintf(stderr, "FAIL: breaker never opened against a dead port\n");
      ++failures;
    }
    print_stats("breaker", client.stats());
    std::printf("\nclient exposition:\n%s",
                registry.render_prometheus().c_str());
  }

  server.stop();
  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %d calls ended badly\n", failures);
    return 1;
  }
  std::printf("\nevery call ended in a typed outcome; no hangs, no bad "
              "verdicts\n");
  return 0;
}
