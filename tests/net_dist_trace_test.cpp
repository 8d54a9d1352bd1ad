// Cross-hop distributed tracing, end to end: a ScoreClient with a
// trace sink scoring against a real ScoreServer whose engine shares a
// second sink — one trace id minted client-side must assemble the
// whole story on both sides of the wire, including under an armed
// ChaosProxy with hedging on.  The gates:
//
//   one id          every span on either side of a sampled call
//                   carries the client's minted trace id;
//   one winner      among a successful call's client spans, exactly
//                   one is named attempt_winner/hedge_winner;
//   zero orphans    every server-side span has a nonzero parent, and
//                   every server_request span's parent is an attempt
//                   span that exists in the client's sink;
//   replayable      with timing excluded, both sinks render
//                   byte-identically across two runs of the same
//                   deterministic workload.
//
// Run under TSan and ASan by the tier-1 sanitizer pass.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/polygraph.h"
#include "net/chaos_proxy.h"
#include "net/score_client.h"
#include "net/score_server.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"

namespace bp::net {
namespace {

using namespace std::chrono_literals;

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

ScoreServerConfig server_config(obs::TraceSink* sink) {
  ScoreServerConfig config;
  config.router.shards = 2;
  config.router.engine.workers = 1;
  config.router.engine.trace = sink;
  config.expected_features = 2;
  config.listener.handler_threads = 4;
  return config;
}

bool is_winner_name(std::string_view name) {
  return name == "attempt_winner" || name == "hedge_winner";
}

// The assembled-trace invariants, checked over both sinks for one call:
// same id everywhere, exactly one winner, zero orphan server roots.
void expect_assembled(const obs::TraceSink& client_sink,
                      const obs::TraceSink& server_sink,
                      std::uint64_t trace_id) {
  std::set<std::uint32_t> client_spans;
  int winners = 0;
  bool saw_root = false;
  for (const obs::TraceEvent& event : client_sink.events()) {
    if (event.trace_id != trace_id) continue;
    client_spans.insert(event.span_id);
    if (is_winner_name(event.name)) ++winners;
    if (event.span_id == 1) {
      saw_root = true;
      EXPECT_EQ(event.parent_id, 0u);
      EXPECT_STREQ(event.name, "client_call");
    } else {
      EXPECT_EQ(event.parent_id, 1u) << "span " << event.span_id;
    }
  }
  EXPECT_TRUE(saw_root) << "trace " << trace_id << " has no client root";
  EXPECT_EQ(winners, 1) << "trace " << trace_id;

  int server_requests = 0;
  for (const obs::TraceEvent& event : server_sink.events()) {
    if (event.trace_id != trace_id) continue;
    ASSERT_NE(event.parent_id, 0u)
        << "orphan server-side root: span " << event.span_id;
    if (event.span_id % 16 == 1) {  // server_request, base+1
      ++server_requests;
      EXPECT_STREQ(event.name, "server_request");
      // Its parent is the client attempt span whose frame reached the
      // ingress — which must exist in the client's half of the trace.
      EXPECT_EQ(event.parent_id, event.span_id / 16);
      EXPECT_TRUE(client_spans.count(event.parent_id))
          << "server_request " << event.span_id
          << " parents under missing client span " << event.parent_id;
    } else {
      // Every other server span parents under its block's
      // server_request.
      EXPECT_EQ(event.parent_id, (event.span_id / 16) * 16 + 1)
          << "span " << event.span_id;
    }
  }
  EXPECT_GE(server_requests, 1) << "trace " << trace_id;
}

TEST(DistTrace, SingleCallAssemblesOneTraceAcrossTheWire) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  obs::TraceSink server_sink({.capacity = 1024, .sample_rate = 1.0});
  ScoreServer server(models, server_config(&server_sink));
  ASSERT_TRUE(server.running()) << server.error();

  obs::TraceSink client_sink({.capacity = 1024, .sample_rate = 1.0});
  ScoreClientConfig client_config;
  client_config.port = server.port();
  client_config.trace = &client_sink;
  ScoreClient client(client_config);

  const std::int32_t clean[] = {0, 0};
  const ScoreCallResult result = client.score(7, "Chrome 100", clean);
  ASSERT_EQ(result.outcome, ScoreClientOutcome::kOk) << result.error;
  ASSERT_NE(result.trace_id, 0u);
  ASSERT_TRUE(result.trace_sampled);

  // Attempt 1, no hedge: client records root (1) + primary (10); the
  // server's block hangs off span 10 at base 160.
  const std::vector<obs::TraceEvent> client_events = client_sink.events();
  ASSERT_EQ(client_events.size(), 2u);
  EXPECT_EQ(client_events[0].span_id, 1u);
  EXPECT_EQ(client_events[1].span_id, 10u);
  EXPECT_STREQ(client_events[1].name, "attempt_winner");

  std::set<std::uint32_t> server_spans;
  for (const obs::TraceEvent& event : server_sink.events()) {
    EXPECT_EQ(event.trace_id, result.trace_id);
    server_spans.insert(event.span_id);
  }
  // base+1 server_request, +2 queue_wait (zero-length: scored inline),
  // +3 terminal, +5 serialize.
  EXPECT_EQ(server_spans, (std::set<std::uint32_t>{161, 162, 163, 165}));
  expect_assembled(client_sink, server_sink, result.trace_id);

  EXPECT_EQ(client.stats().trace_propagated, 1u);
}

TEST(DistTrace, UnsampledTracePropagatesButRecordsNothing) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  obs::TraceSink server_sink({.capacity = 1024, .sample_rate = 1.0});
  ScoreServer server(models, server_config(&server_sink));
  ASSERT_TRUE(server.running()) << server.error();

  // The client's head sampling says no; the server must honor that —
  // its own sample_rate=1.0 sink stays empty (a half-assembled trace
  // with only server-side spans would be worse than none).
  obs::TraceSink client_sink({.capacity = 1024, .sample_rate = 0.0});
  ScoreClientConfig client_config;
  client_config.port = server.port();
  client_config.trace = &client_sink;
  ScoreClient client(client_config);

  const std::int32_t clean[] = {0, 0};
  const ScoreCallResult result = client.score(7, "Chrome 100", clean);
  ASSERT_EQ(result.outcome, ScoreClientOutcome::kOk) << result.error;
  EXPECT_NE(result.trace_id, 0u);   // minted and propagated...
  EXPECT_FALSE(result.trace_sampled);
  EXPECT_EQ(client.stats().trace_propagated, 1u);
  EXPECT_EQ(client_sink.recorded(), 0u);  // ...but recorded nowhere
  EXPECT_EQ(server_sink.recorded(), 0u);
}

// The headline assembly gate: hedged calls through an armed chaos
// proxy.  Response-direction delays make hedges race for real; every
// successful sampled call must still assemble one trace with exactly
// one winner span and zero orphan roots.
TEST(DistTrace, HedgedChaosAssemblyHasOneWinnerAndNoOrphans) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  obs::TraceSink server_sink({.capacity = 8192, .sample_rate = 1.0});
  ScoreServer server(models, server_config(&server_sink));
  ASSERT_TRUE(server.running()) << server.error();

  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = server.port();
  proxy_config.seed = 0xD157;
  proxy_config.fault_client_to_upstream = false;
  proxy_config.delay_probability = 0.30;
  proxy_config.delay = 80ms;
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.running()) << proxy.error();

  obs::TraceSink client_sink({.capacity = 8192, .sample_rate = 1.0});
  ScoreClientConfig client_config;
  client_config.port = proxy.port();
  client_config.io_timeout = 500ms;
  client_config.deadline = 4000ms;
  client_config.max_attempts = 4;
  client_config.initial_backoff = 5ms;
  client_config.max_backoff = 50ms;
  client_config.hedge_delay = 25ms;  // well under the injected 80ms delay
  client_config.trace = &client_sink;
  ScoreClient client(client_config);

  std::map<std::uint64_t, std::uint64_t> trace_of_session;
  int hedged_calls = 0;
  for (std::uint64_t session = 1; session <= 40; ++session) {
    const bool fraud = session % 2 == 0;
    const std::int32_t clean[] = {0, 0};
    const std::int32_t bot[] = {10, 10};
    const ScoreCallResult result =
        client.score(session, "Chrome 100", fraud ? bot : clean);
    ASSERT_EQ(result.outcome, ScoreClientOutcome::kOk)
        << "session " << session << ": " << result.error;
    ASSERT_NE(result.trace_id, 0u);
    ASSERT_TRUE(result.trace_sampled);
    // Distinct sessions must mint distinct ids, or the assembled
    // traces would shadow each other.
    ASSERT_TRUE(
        trace_of_session.emplace(result.trace_id, session).second)
        << "trace id collision at session " << session;
    if (result.hedged) ++hedged_calls;
  }
  EXPECT_GT(hedged_calls, 0)
      << "no hedge ever launched; delay rate too low to test assembly";

  for (const auto& [trace_id, session] : trace_of_session) {
    expect_assembled(client_sink, server_sink, trace_id);
  }
  proxy.stop();
  EXPECT_GT(proxy.stats().delays, 0u);
}

// Determinism gate: the same workload against a fresh stack renders
// the same traces, byte for byte, once timing is excluded — trace ids
// are pure in (trace_seed, session), span ids are fixed by convention,
// and render sorts by (trace_id, span_id).
TEST(DistTrace, RenderWithoutTimingIsByteReplayable) {
  const auto run = [](std::string* client_render, std::string* server_render) {
    serve::ModelRegistry models;
    ASSERT_TRUE(models.publish(tiny_model()));
    obs::TraceSink server_sink({.capacity = 4096, .sample_rate = 1.0});
    ScoreServer server(models, server_config(&server_sink));
    ASSERT_TRUE(server.running()) << server.error();

    obs::TraceSink client_sink({.capacity = 4096, .sample_rate = 1.0});
    ScoreClientConfig client_config;
    client_config.port = server.port();
    client_config.trace = &client_sink;
    ScoreClient client(client_config);

    for (std::uint64_t session = 1; session <= 12; ++session) {
      const bool fraud = session % 3 == 0;
      const std::int32_t clean[] = {0, 0};
      const std::int32_t bot[] = {10, 10};
      const ScoreCallResult result =
          client.score(session, "Chrome 100", fraud ? bot : clean);
      ASSERT_EQ(result.outcome, ScoreClientOutcome::kOk) << result.error;
    }
    *client_render = client_sink.render(/*include_timing=*/false);
    *server_render = server_sink.render(/*include_timing=*/false);
  };

  std::string client_first, server_first, client_second, server_second;
  run(&client_first, &server_first);
  run(&client_second, &server_second);
  ASSERT_FALSE(client_first.empty());
  ASSERT_FALSE(server_first.empty());
  EXPECT_EQ(client_first, client_second);
  EXPECT_EQ(server_first, server_second);

  // The rendered lines carry the minted ids — the /tracez?trace=
  // drill-down filter works off the same render.
  const std::string filtered = obs::TraceSink(
      {.capacity = 1, .sample_rate = 1.0}).render(false, 42);
  EXPECT_TRUE(filtered.empty());
}

// Without a t: context a wire request's engine correlation id is its
// session id, so the engine's local spans land under the session id as
// trace id — not under some server-internal index shared by unrelated
// requests.
TEST(DistTrace, UncontextedWireRequestTracesUnderItsSessionId) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  obs::TraceSink server_sink({.capacity = 1024, .sample_rate = 1.0});
  ScoreServer server(models, server_config(&server_sink));
  ASSERT_TRUE(server.running()) << server.error();

  const std::int32_t clean[] = {0, 0};
  for (const std::uint64_t session : {41u, 42u}) {
    std::string frame;
    render_score_request(session, "Chrome 100", clean, &frame);
    const HttpResult result =
        http_post("127.0.0.1", server.port(), "/score", frame);
    ASSERT_EQ(result.status, 200) << result.error;
  }
  std::set<std::uint64_t> trace_ids;
  for (const obs::TraceEvent& event : server_sink.events()) {
    trace_ids.insert(event.trace_id);
  }
  EXPECT_EQ(trace_ids, (std::set<std::uint64_t>{41, 42}));
}

}  // namespace
}  // namespace bp::net
