// ScoreClient tests: the resilient /score client tier — typed
// outcomes, deadline budgets, deterministic backoff, hedging, the
// circuit breaker, connection pooling, and bp_client_* metrics.
//
// Server behavior is scripted with a plain HttpListener whose handler
// speaks the wire format directly, so every failure mode (503 forever,
// garbage frames, wrong session echo, a stalled first request) is
// produced on demand; the happy path also runs against the real
// ScoreServer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/polygraph.h"
#include "net/chaos_proxy.h"
#include "net/http_common.h"
#include "net/score_client.h"
#include "net/score_server.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "util/fault.h"

namespace bp::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// Same tiny model as the score-server suite: Chrome 100 expects
// cluster 0 at (0,0); (10,10) lands in cluster 1 and flags.
core::Polygraph tiny_model() {
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
  table.assign({ua::Vendor::kChrome, 100, ua::Os::kWindows10}, 0);
  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

// A handler that answers every well-formed /score frame with a valid
// verdict echoing the session — the minimal healthy upstream.
HttpResponse healthy_verdict(const HttpRequest& request,
                             std::uint64_t session_offset = 0) {
  HttpResponse response;
  WireScoreRequest parsed;
  if (parse_score_request(request.body, &parsed) != WireError::kOk) {
    response.status = 400;
    response.body = "bad frame\n";
    return response;
  }
  WireScoreResponse verdict;
  verdict.session_id = parsed.session_id + session_offset;
  verdict.status = serve::ResponseStatus::kScored;
  verdict.flagged = false;
  verdict.risk_factor = 1;
  verdict.predicted_cluster = 0;
  verdict.model_version = 1;
  verdict.latency_micros = 5;
  response.content_type = "application/x-bpwire";
  render_score_response(verdict, &response.body);
  return response;
}

std::unique_ptr<HttpListener> scripted_listener(
    std::function<HttpResponse(const HttpRequest&)> fn) {
  ListenerConfig config;
  config.keep_alive = true;
  auto listener = std::make_unique<HttpListener>(
      config, [fn = std::move(fn)](const HttpRequest& request,
                                   HttpResponse& response) {
        response = fn(request);
      });
  EXPECT_TRUE(listener->running()) << listener->error();
  return listener;
}

ScoreClientConfig client_config(std::uint16_t port) {
  ScoreClientConfig config;
  config.port = port;
  config.io_timeout = 2000ms;
  config.deadline = 5000ms;
  config.sleep_fn = [](std::chrono::milliseconds) {};  // no real backoff wait
  return config;
}

TEST(ScoreClient, ScoresAgainstTheRealScoreServer) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  ScoreServerConfig server_config;
  server_config.router.shards = 1;
  server_config.router.engine.workers = 1;
  server_config.expected_features = 2;
  ScoreServer server(models, server_config);
  ASSERT_TRUE(server.running()) << server.error();

  ScoreClient client(client_config(server.port()));
  const std::int32_t clean[] = {0, 0};
  const ScoreCallResult result = client.score(7, "Chrome 100", clean);
  ASSERT_EQ(result.outcome, ScoreClientOutcome::kOk) << result.error;
  EXPECT_EQ(result.response.session_id, 7u);
  EXPECT_FALSE(result.response.flagged);
  EXPECT_EQ(result.response.predicted_cluster, 0u);
  EXPECT_EQ(result.attempts, 1);

  const std::int32_t fraud[] = {10, 10};
  const ScoreCallResult flagged = client.score(8, "Chrome 100", fraud);
  ASSERT_EQ(flagged.outcome, ScoreClientOutcome::kOk) << flagged.error;
  EXPECT_TRUE(flagged.response.flagged);
  EXPECT_EQ(flagged.response.predicted_cluster, 1u);

  const ScoreClientStats stats = client.stats();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_FALSE(client.breaker_open());
}

// Three calls ride one pooled keep-alive connection — observed from
// the outside by a pass-through chaos proxy counting TCP connections.
TEST(ScoreClient, PoolsKeepAliveConnections) {
  auto listener =
      scripted_listener([](const HttpRequest& r) { return healthy_verdict(r); });
  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = listener->port();
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.running()) << proxy.error();

  ScoreClient client(client_config(proxy.port()));
  const std::int32_t features[] = {1, 2};
  for (std::uint64_t s = 1; s <= 3; ++s) {
    ASSERT_EQ(client.score(s, "Chrome 100", features).outcome,
              ScoreClientOutcome::kOk);
  }
  proxy.stop();
  EXPECT_EQ(proxy.stats().connections, 1u);
  EXPECT_EQ(client.stats().ok, 3u);
}

// A call's spans follow the one sampling decision it made: at rate 1
// the root and the winning attempt, at rate 0 nothing, and at any rate
// in between exactly the calls that reported trace_sampled.
TEST(ScoreClient, TracedCallsRecordSpansExactlyWhenSampled) {
  auto listener = scripted_listener(
      [](const HttpRequest& r) { return healthy_verdict(r); });
  const std::int32_t features[] = {1, 2};
  for (const double rate : {1.0, 0.0, 0.5}) {
    obs::TraceSink sink({.capacity = 4096, .sample_rate = rate});
    ScoreClientConfig config = client_config(listener->port());
    config.trace = &sink;
    ScoreClient client(config);
    std::size_t sampled = 0;
    for (std::uint64_t session = 1; session <= 200; ++session) {
      const ScoreCallResult result =
          client.score(session, "Chrome 100", features);
      ASSERT_EQ(result.outcome, ScoreClientOutcome::kOk) << result.error;
      const std::vector<obs::TraceEvent> events =
          sink.events(result.trace_id);
      if (!result.trace_sampled) {
        EXPECT_TRUE(events.empty()) << "rate " << rate;
        continue;
      }
      ++sampled;
      ASSERT_EQ(events.size(), 2u) << "rate " << rate;
      EXPECT_EQ(events[0].span_id, 1u);
      EXPECT_STREQ(events[0].name, "client_call");
      EXPECT_EQ(events[1].span_id, 10u);
      EXPECT_STREQ(events[1].name, "attempt_winner");
    }
    EXPECT_EQ(sink.recorded(), 2 * sampled) << "rate " << rate;
    if (rate == 1.0) {
      EXPECT_EQ(sampled, 200u);
    } else if (rate == 0.0) {
      EXPECT_EQ(sampled, 0u);
    } else {
      EXPECT_GT(sampled, 50u);
      EXPECT_LT(sampled, 150u);
    }
  }
}

TEST(ScoreClient, ShedIsRetriedUpToMaxAttempts) {
  auto listener = scripted_listener([](const HttpRequest&) {
    HttpResponse response;
    response.status = 503;
    response.body = "shed\n";
    return response;
  });
  std::vector<std::chrono::milliseconds> sleeps;
  ScoreClientConfig config = client_config(listener->port());
  config.max_attempts = 3;
  config.sleep_fn = [&sleeps](std::chrono::milliseconds d) {
    sleeps.push_back(d);
  };
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};
  const ScoreCallResult result = client.score(5, "Chrome 100", features);
  EXPECT_EQ(result.outcome, ScoreClientOutcome::kShed);
  EXPECT_EQ(result.attempts, 3);
  // Two backoffs: initial 10ms then 20ms, each jittered into
  // [0.5, 1.0) of its base.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_GE(sleeps[0], 5ms);
  EXPECT_LT(sleeps[0], 10ms);
  EXPECT_GE(sleeps[1], 10ms);
  EXPECT_LT(sleeps[1], 20ms);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().shed, 1u);
}

TEST(ScoreClient, BackoffJitterIsDeterministicPerSeed) {
  auto listener = scripted_listener([](const HttpRequest&) {
    HttpResponse response;
    response.status = 503;
    return response;
  });
  const auto schedule_for = [&](std::uint64_t seed) {
    std::vector<std::chrono::milliseconds> sleeps;
    ScoreClientConfig config = client_config(listener->port());
    config.max_attempts = 4;
    config.jitter_seed = seed;
    config.sleep_fn = [&sleeps](std::chrono::milliseconds d) {
      sleeps.push_back(d);
    };
    ScoreClient client(config);
    const std::int32_t features[] = {1};
    client.score(1, "Chrome 100", features);
    return sleeps;
  };
  EXPECT_EQ(schedule_for(42), schedule_for(42));
}

TEST(ScoreClient, RejectionIsTerminalAndDoesNotTripTheBreaker) {
  auto listener = scripted_listener([](const HttpRequest&) {
    HttpResponse response;
    response.status = 400;
    response.body = "bad frame: feature_count\n";
    return response;
  });
  ScoreClientConfig config = client_config(listener->port());
  config.breaker_threshold = 1;  // would open on any counted failure
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};
  const ScoreCallResult result = client.score(5, "Chrome 100", features);
  EXPECT_EQ(result.outcome, ScoreClientOutcome::kRejected);
  EXPECT_EQ(result.attempts, 1);  // no retry: the server understood and said no
  EXPECT_NE(result.error.find("400"), std::string::npos);
  EXPECT_FALSE(client.breaker_open());
}

TEST(ScoreClient, GarbageResponseIsTypedCorrupt) {
  auto listener = scripted_listener([](const HttpRequest&) {
    HttpResponse response;
    response.body = "not a wire frame\n";
    return response;
  });
  ScoreClientConfig config = client_config(listener->port());
  config.max_attempts = 2;
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};
  const ScoreCallResult result = client.score(5, "Chrome 100", features);
  EXPECT_EQ(result.outcome, ScoreClientOutcome::kCorruptResponse);
  EXPECT_EQ(result.attempts, 2);  // corrupt responses are retried
  EXPECT_NE(result.error.find("invalid response frame"), std::string::npos);
}

TEST(ScoreClient, WrongSessionEchoIsTypedCorrupt) {
  auto listener = scripted_listener(
      [](const HttpRequest& r) { return healthy_verdict(r, /*offset=*/1); });
  ScoreClientConfig config = client_config(listener->port());
  config.max_attempts = 2;
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};
  const ScoreCallResult result = client.score(5, "Chrome 100", features);
  EXPECT_EQ(result.outcome, ScoreClientOutcome::kCorruptResponse);
  EXPECT_NE(result.error.find("session echo mismatch"), std::string::npos);
}

// Transport failures open the breaker; while open, calls short-circuit
// without network I/O; after the cooldown one half-open probe goes
// through and a success closes it.
TEST(ScoreClient, BreakerOpensShortCircuitsAndRecloses) {
  auto listener =
      scripted_listener([](const HttpRequest& r) { return healthy_verdict(r); });
  ScoreClientConfig config = client_config(listener->port());
  config.max_attempts = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown = 2;
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};

  {
    util::ScopedFaults faults("net.sock.connect:1");
    EXPECT_EQ(client.score(1, "Chrome 100", features).outcome,
              ScoreClientOutcome::kTransportError);
    EXPECT_FALSE(client.breaker_open());
    EXPECT_EQ(client.score(2, "Chrome 100", features).outcome,
              ScoreClientOutcome::kTransportError);
    EXPECT_TRUE(client.breaker_open());

    // Two short-circuited calls spend the cooldown — no attempts made.
    EXPECT_EQ(client.score(3, "Chrome 100", features).outcome,
              ScoreClientOutcome::kBreakerOpen);
    EXPECT_EQ(client.score(4, "Chrome 100", features).outcome,
              ScoreClientOutcome::kBreakerOpen);
    EXPECT_EQ(client.stats().attempts, 2u);
  }

  // Connects work again: the half-open probe succeeds and closes it.
  EXPECT_EQ(client.score(5, "Chrome 100", features).outcome,
            ScoreClientOutcome::kOk);
  EXPECT_FALSE(client.breaker_open());
  EXPECT_EQ(client.score(6, "Chrome 100", features).outcome,
            ScoreClientOutcome::kOk);

  const ScoreClientStats stats = client.stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_short_circuits, 2u);
  EXPECT_EQ(stats.transport_errors, 2u);
  EXPECT_EQ(stats.ok, 2u);
}

// A failed half-open probe re-arms the cooldown instead of closing.
TEST(ScoreClient, FailedProbeKeepsTheBreakerOpen) {
  auto listener =
      scripted_listener([](const HttpRequest& r) { return healthy_verdict(r); });
  ScoreClientConfig config = client_config(listener->port());
  config.max_attempts = 1;
  config.breaker_threshold = 1;
  config.breaker_cooldown = 1;
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};

  util::ScopedFaults faults("net.sock.connect:1");
  EXPECT_EQ(client.score(1, "Chrome 100", features).outcome,
            ScoreClientOutcome::kTransportError);
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.score(2, "Chrome 100", features).outcome,
            ScoreClientOutcome::kBreakerOpen);
  // Probe (still failing) — breaker stays open, cooldown re-arms.
  EXPECT_EQ(client.score(3, "Chrome 100", features).outcome,
            ScoreClientOutcome::kTransportError);
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.score(4, "Chrome 100", features).outcome,
            ScoreClientOutcome::kBreakerOpen);
}

// Half-open means one probe in flight, not one probe per concurrent
// caller: a call arriving while the probe is out short-circuits without
// touching the network, and only the probe's outcome moves the breaker.
TEST(ScoreClient, HalfOpenAdmitsOneProbeAtATime) {
  std::promise<void> probe_arrived;
  std::promise<void> release_probe;
  std::shared_future<void> released = release_probe.get_future().share();
  std::atomic<int> served{0};
  auto listener = scripted_listener([&](const HttpRequest& r) {
    if (served.fetch_add(1) == 0) {
      probe_arrived.set_value();
      released.wait();  // hold the probe in flight
    }
    return healthy_verdict(r);
  });
  ScoreClientConfig config = client_config(listener->port());
  config.max_attempts = 1;
  config.breaker_threshold = 1;
  config.breaker_cooldown = 1;
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};

  {
    util::ScopedFaults faults("net.sock.connect:1");
    EXPECT_EQ(client.score(1, "Chrome 100", features).outcome,
              ScoreClientOutcome::kTransportError);
    EXPECT_EQ(client.score(2, "Chrome 100", features).outcome,
              ScoreClientOutcome::kBreakerOpen);  // spends the cooldown
  }
  ASSERT_TRUE(client.breaker_open());

  ScoreCallResult probe;
  std::thread prober([&] { probe = client.score(3, "Chrome 100", features); });
  probe_arrived.get_future().wait();

  // This thread's call arrives while the probe is held upstream.
  const ScoreCallResult second = client.score(4, "Chrome 100", features);
  EXPECT_EQ(second.outcome, ScoreClientOutcome::kBreakerOpen);
  EXPECT_EQ(second.attempts, 0);
  EXPECT_TRUE(client.breaker_open());  // the short circuit moved nothing

  release_probe.set_value();
  prober.join();
  EXPECT_EQ(probe.outcome, ScoreClientOutcome::kOk) << probe.error;
  EXPECT_EQ(probe.attempts, 1);
  EXPECT_FALSE(client.breaker_open());  // the probe's success closed it
  EXPECT_EQ(served.load(), 1);
  EXPECT_EQ(client.score(5, "Chrome 100", features).outcome,
            ScoreClientOutcome::kOk);

  const ScoreClientStats stats = client.stats();
  EXPECT_EQ(stats.breaker_short_circuits, 2u);
  EXPECT_EQ(stats.attempts, 3u);  // the failure, the probe, call 5
  EXPECT_EQ(stats.breaker_opens, 1u);
}

// The tail-at-scale move: the first request stalls, the hedge answers,
// the call finishes far sooner than the stall.
TEST(ScoreClient, HedgeWinsOverAStalledPrimary) {
  std::atomic<int> served{0};
  auto listener = scripted_listener([&served](const HttpRequest& r) {
    if (served.fetch_add(1) == 0) std::this_thread::sleep_for(400ms);
    return healthy_verdict(r);
  });
  ScoreClientConfig config = client_config(listener->port());
  config.hedge_delay = 20ms;
  config.max_attempts = 1;
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};

  const Clock::time_point start = Clock::now();
  const ScoreCallResult result = client.score(9, "Chrome 100", features);
  const auto elapsed = Clock::now() - start;
  ASSERT_EQ(result.outcome, ScoreClientOutcome::kOk) << result.error;
  EXPECT_EQ(result.response.session_id, 9u);
  EXPECT_TRUE(result.hedged);
  EXPECT_TRUE(result.hedge_won);
  EXPECT_LT(elapsed, 300ms);  // did not wait out the 400ms stall
  EXPECT_EQ(client.stats().hedges, 1u);
  EXPECT_EQ(client.stats().hedge_wins, 1u);
  listener->stop();  // joins the stalled handler before `served` dies
}

// When every request stalls past the budget, the call returns a typed
// kDeadlineExhausted at the deadline — it does not hang on the stall.
TEST(ScoreClient, DeadlineExhaustedIsTypedAndPrompt) {
  auto listener = scripted_listener([](const HttpRequest& r) {
    std::this_thread::sleep_for(400ms);
    return healthy_verdict(r);
  });
  ScoreClientConfig config = client_config(listener->port());
  config.hedge_delay = 20ms;
  config.deadline = 120ms;
  config.max_attempts = 3;
  ScoreClient client(config);
  const std::int32_t features[] = {1, 2};

  const Clock::time_point start = Clock::now();
  const ScoreCallResult result = client.score(9, "Chrome 100", features);
  const auto elapsed = Clock::now() - start;
  EXPECT_EQ(result.outcome, ScoreClientOutcome::kDeadlineExhausted);
  EXPECT_LT(elapsed, 350ms);  // bounded by the budget, not the stall
  EXPECT_EQ(client.stats().deadline_exhausted, 1u);
  listener->stop();
}

TEST(ScoreClient, RegistryCountersTrackOutcomes) {
  auto listener =
      scripted_listener([](const HttpRequest& r) { return healthy_verdict(r); });
  obs::MetricsRegistry registry;
  ScoreClientConfig config = client_config(listener->port());
  config.registry = &registry;
  {
    ScoreClient client(config);
    const std::int32_t features[] = {1, 2};
    ASSERT_EQ(client.score(5, "Chrome 100", features).outcome,
              ScoreClientOutcome::kOk);
    EXPECT_EQ(registry.counter("bp_client_calls_total").value(), 1u);
    EXPECT_EQ(registry.counter("bp_client_attempts_total").value(), 1u);
    EXPECT_EQ(registry.counter("bp_client_ok_total").value(), 1u);
    EXPECT_EQ(registry.counter("bp_client_transport_errors_total").value(),
              0u);
  }
  // The breaker gauge is a callback into the client: the destructor
  // must have removed it, or rendering would dereference a dead object.
  // (Trailing space so the bp_client_breaker_opens_total counter,
  // which survives, does not match.)
  EXPECT_EQ(registry.render_prometheus().find("bp_client_breaker_open "),
            std::string::npos);
}

}  // namespace
}  // namespace bp::net
