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
//   cheap           tracing costs under 3% of closed-loop run time,
//                   judged by a paired statistic (see below).
//
// Run under TSan and ASan by the tier-1 sanitizer pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/polygraph.h"
#include "net/chaos_proxy.h"
#include "net/score_client.h"
#include "net/score_server.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "paired_gate.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"
#include "util/rng.h"
#include "wire_load.h"

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
// are pure in the session id, span ids are fixed by convention,
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
        HttpClient("127.0.0.1", server.port())
            .post("/score", frame, "application/x-bpwire",
                  /*close_connection=*/true);
    ASSERT_EQ(result.status, 200) << result.error;
  }
  std::set<std::uint64_t> trace_ids;
  for (const obs::TraceEvent& event : server_sink.events()) {
    trace_ids.insert(event.trace_id);
  }
  EXPECT_EQ(trace_ids, (std::set<std::uint64_t>{41, 42}));
}

// ------------------------------ tracing cost ------------------------------
//
// Tracing must stay cheap enough to leave on: under 3% of the plane's
// closed-loop run time, judged by the paired statistic of
// paired_gate.h over untraced/traced runs.  The synthetic cases below
// pin that statistic's verdicts for every gate that uses it.

TEST(DistTraceOverheadGate, FivePercentSlowdownTrips) {
  const PairedGate gate =
      paired_ratio_gate(synthetic_ratios(1.05, 0.07, 40, 1), 0.03, 7);
  EXPECT_TRUE(gate.trips) << gate.median << " [" << gate.lo << ", "
                          << gate.hi << "]";
}

TEST(DistTraceOverheadGate, NoSlowdownDoesNotTrip) {
  const PairedGate gate =
      paired_ratio_gate(synthetic_ratios(1.0, 0.07, 40, 1), 0.03, 7);
  EXPECT_FALSE(gate.trips) << gate.median << " [" << gate.lo << ", "
                           << gate.hi << "]";
}

TEST(DistTraceOverheadGate, MedianPastBoundInsideNoiseDoesNotTrip) {
  const std::vector<double> ratios = {0.80, 0.86, 0.93, 1.04, 1.04,
                                      1.04, 1.12, 1.19, 1.26};
  const PairedGate gate = paired_ratio_gate(ratios, 0.03, 7);
  EXPECT_GE(gate.median - 1.0, 0.03);
  EXPECT_LE(gate.lo, 1.0);
  EXPECT_FALSE(gate.trips);
}

TEST(DistTraceOverheadGate, VerdictIsDeterministicForAFixedSeed) {
  const std::vector<double> ratios = synthetic_ratios(1.03, 0.07, 40, 3);
  const PairedGate a = paired_ratio_gate(ratios, 0.03, 11);
  const PairedGate b = paired_ratio_gate(ratios, 0.03, 11);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.trips, b.trips);
}

// Two identical servers over the production-shape popularity stream,
// one with a sink at production sampling (1%) on its engines.  Every
// traced frame carries a t: context, so every request pays the
// extension parse and adoption, and the sampled 1% also pay span
// recording.  60 pairs of 1000-call closed-loop runs over 2
// connections; both arms lossless, spans recorded, and the paired gate
// holds at 3%.  A run lasts ~5 ms on a 4-thread host (both ends set
// TCP_NODELAY, so no delayed-ACK stall sits in it), and the ratio
// prices whole runs.
TEST(DistTrace, TracingCostsUnderThreePercentOverPairedRuns) {
  core::Polygraph model = wire_load::train_production_model(8'000);
  const auto pool = wire_load::session_pool(model, 500, 0x5EF7E2025);
  const auto frames = wire_load::popularity_frames(pool, 1'000);
  serve::ModelRegistry models;
  const ScoreServerConfig off_config =
      wire_load::server_config(model, pool.size());
  ASSERT_TRUE(models.publish(std::move(model)));
  obs::TraceSink sink({.capacity = 8192, .sample_rate = 0.01});
  ScoreServerConfig on_config = off_config;
  on_config.router.engine.trace = &sink;
  ScoreServer off_server(models, off_config);
  ScoreServer on_server(models, on_config);
  ASSERT_TRUE(off_server.running()) << off_server.error();
  ASSERT_TRUE(on_server.running()) << on_server.error();

  // Contexts minted the way ScoreClient mints them: a deterministic id,
  // parent = the first attempt's primary span, sampled = the sink's own
  // head-sampling decision for that id.
  std::vector<std::string> traced = frames;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const std::uint64_t trace_id = std::max<std::uint64_t>(1, util::mix64(i + 1));
    append_trace_context({trace_id, 10, sink.sampled(trace_id)}, &traced[i]);
  }

  std::size_t lost = 0;
  std::size_t corrupted = 0;
  const auto run_seconds = [&](bool tracing) {
    const wire_load::LoadResult load =
        wire_load::drive(tracing ? on_server.port() : off_server.port(),
                         tracing ? traced : frames, 0.0, 2, 1'000);
    lost += load.lost;
    corrupted += load.corrupted;
    return load.seconds;
  };
  run_seconds(false);  // warm both verdict caches
  run_seconds(true);
  std::vector<double> ratios;
  for (int pair = 0; pair < 60; ++pair) {
    double off_s = 0.0;
    double on_s = 0.0;
    if (pair % 2 == 0) {
      off_s = run_seconds(false);
      on_s = run_seconds(true);
    } else {
      on_s = run_seconds(true);
      off_s = run_seconds(false);
    }
    ratios.push_back(on_s / off_s);
  }
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(corrupted, 0u);
  EXPECT_GT(sink.recorded(), 0u) << "the traced frames were not adopted";
  const PairedGate gate = paired_ratio_gate(ratios, 0.03, 0x7ACE);
  if (!kSanitized) {
    EXPECT_FALSE(gate.trips)
        << "tracing overhead: median ratio " << gate.median
        << ", 95% interval [" << gate.lo << ", " << gate.hi << "]";
  }
}

}  // namespace
}  // namespace bp::net
