// The network-plane chaos soak: a ScoreClient scoring through a
// deterministic ChaosProxy in front of a real ScoreServer, with the
// proxy injecting delays, truncations, resets and corruption on the
// wire.  The gates:
//
//   zero lost       every call ends kOk — retries + hedging absorb
//                   every injected fault within the deadline budget;
//   zero corrupted  every accepted verdict echoes its session and
//                   matches the model's known answer for its features
//                   (the proxy's corruption flips a byte's top bit, so
//                   a mutilated frame can never alias a valid one —
//                   it is always *detected* and retried);
//   zero doubles    every call yields exactly one verdict (a retry of
//                   the idempotent /score is a replay, not a double:
//                   the verdict is a pure function of model version,
//                   features and UA, so replays agree by construction
//                   — asserted via the per-session field checks);
//   never hangs     the soak itself terminates because every layer is
//                   deadline-bounded; no call may exceed its budget.
//
// Separately, hedging must buy back the tail that injected stalls
// cost (hedged p99 below unhedged p99), and the chaos differential runs
// the same relay on the production model across a hot swap: every
// accepted verdict must equal offline scoring on the model version the
// response names.
//
// Run under TSan and ASan by the tier-1 sanitizer pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/polygraph.h"
#include "net/chaos_proxy.h"
#include "net/http_common.h"
#include "net/score_client.h"
#include "net/score_server.h"
#include "net/wire.h"
#include "serve/model_registry.h"
#include "traffic/session_generator.h"
#include "wire_load.h"

namespace bp::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

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

std::string request_frame(std::uint64_t session, std::string_view ua,
                          std::vector<std::int32_t> features) {
  std::string frame;
  render_score_request(session, ua, features, &frame);
  return frame;
}

ScoreServerConfig server_config() {
  ScoreServerConfig config;
  config.router.shards = 2;
  config.router.engine.workers = 1;
  config.expected_features = 2;
  config.listener.handler_threads = 4;
  return config;
}

TEST(ChaosProxy, DecideIsDeterministicAndMatchesItsProbabilities) {
  ChaosProxyConfig config;
  config.seed = 99;
  config.reset_probability = 0.01;
  config.truncate_probability = 0.01;
  config.corrupt_probability = 0.01;
  config.delay_probability = 0.02;
  ChaosProxy first(config);
  ChaosProxy second(config);
  ASSERT_TRUE(first.running());
  ASSERT_TRUE(second.running());

  std::map<ChaosAction, int> histogram;
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    for (std::uint64_t chunk = 0; chunk < 1000; ++chunk) {
      const ChaosAction action = first.decide(stream, chunk);
      ASSERT_EQ(action, second.decide(stream, chunk))
          << "same seed, same (stream, chunk), different fault";
      ++histogram[action];
    }
  }
  // 8000 draws: each 1% arm expects ~80, the 2% arm ~160.  Loose
  // bounds — this pins "roughly the configured rate", not exact counts.
  EXPECT_GT(histogram[ChaosAction::kReset], 20);
  EXPECT_LT(histogram[ChaosAction::kReset], 240);
  EXPECT_GT(histogram[ChaosAction::kTruncate], 20);
  EXPECT_GT(histogram[ChaosAction::kCorrupt], 20);
  EXPECT_GT(histogram[ChaosAction::kDelay], 60);
  EXPECT_GT(histogram[ChaosAction::kForward], 7000);

  // A different seed produces a different schedule.
  config.seed = 100;
  ChaosProxy reseeded(config);
  bool any_difference = false;
  for (std::uint64_t chunk = 0; chunk < 1000 && !any_difference; ++chunk) {
    any_difference = reseeded.decide(0, chunk) != first.decide(0, chunk);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChaosProxy, FaultFreeRelayIsTransparent) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  ScoreServer server(models, server_config());
  ASSERT_TRUE(server.running()) << server.error();

  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = server.port();
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.running()) << proxy.error();

  const std::string frame = request_frame(7, "Chrome 100", {0, 0});
  const HttpResult result =
      HttpClient("127.0.0.1", proxy.port())
          .post("/score", frame, "application/x-bpwire",
                /*close_connection=*/true);
  ASSERT_EQ(result.status, 200) << result.error;
  WireScoreResponse verdict;
  ASSERT_EQ(parse_score_response(result.body, &verdict), WireError::kOk);
  EXPECT_EQ(verdict.session_id, 7u);
  EXPECT_EQ(verdict.predicted_cluster, 0u);

  proxy.stop();
  const ChaosProxyStats stats = proxy.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_GT(stats.chunks, 0u);
  EXPECT_EQ(stats.resets + stats.truncates + stats.corrupts + stats.delays,
            0u);
}

// A wall of resets: the raw client sees typed transport errors (or a
// clean verdict when a request slips through whole), promptly — never
// a hang, never a garbage success.
TEST(ChaosProxy, ResetStormYieldsTypedErrorsNotHangs) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  ScoreServer server(models, server_config());
  ASSERT_TRUE(server.running()) << server.error();

  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = server.port();
  proxy_config.seed = 7;
  proxy_config.reset_probability = 0.5;
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.running()) << proxy.error();

  const std::string frame = request_frame(1, "Chrome 100", {0, 0});
  const Clock::time_point start = Clock::now();
  int ok = 0, failed = 0;
  for (int i = 0; i < 30; ++i) {
    const HttpResult result =
        HttpClient("127.0.0.1", proxy.port(), 2000ms)
            .post("/score", frame, "application/x-bpwire",
                  /*close_connection=*/true);
    if (result.status == 200) {
      WireScoreResponse verdict;
      ASSERT_EQ(parse_score_response(result.body, &verdict), WireError::kOk)
          << result.body;
      ++ok;
    } else {
      EXPECT_FALSE(result.error.empty());
      ++failed;
    }
  }
  EXPECT_LT(Clock::now() - start, 90s);
  EXPECT_EQ(ok + failed, 30);
  EXPECT_GT(failed, 0) << "a 50% reset storm should break some calls";
  proxy.stop();
  EXPECT_GT(proxy.stats().resets, 0u);
}

// Hedging under injected stalls: 400 sequential ScoreClient calls per
// arm through a proxy stalling 1% of relayed chunks by 40 ms, one arm
// unhedged and one with a 5 ms hedge.  Both arms absorb every stall
// (zero lost, zero corrupted), stalls fire in both, a hedge wins at
// least once, and the hedged p99 over the arm's pooled latencies beats
// the unhedged one.  The arms run interleaved, in rounds whose first
// arm alternates, so load that arrives mid-test lands on both alike.
// Each arm keeps its own proxy and client throughout: the unhedged arm
// reuses one pooled connection, so its stall schedule is the same
// every run; the hedged arm's extra connections are new chaos streams
// drawing from the same per-chunk rate.
ChaosProxyConfig stall_proxy_config(std::uint16_t server_port) {
  ChaosProxyConfig config;
  config.upstream_port = server_port;
  config.seed = 0xFA17A;
  config.delay_probability = 0.01;
  config.delay = 40ms;
  return config;
}

ScoreClientConfig stall_client_config(std::uint16_t proxy_port,
                                      std::chrono::milliseconds hedge_delay) {
  ScoreClientConfig config;
  config.port = proxy_port;
  config.io_timeout = 1000ms;
  config.deadline = 3000ms;
  config.max_attempts = 4;
  config.initial_backoff = 2ms;
  config.max_backoff = 20ms;
  config.hedge_delay = hedge_delay;
  return config;
}

struct StallArm {
  StallArm(std::uint16_t server_port, std::chrono::milliseconds hedge_delay)
      : proxy(stall_proxy_config(server_port)),
        client(stall_client_config(proxy.port(), hedge_delay)) {}

  // Scores sessions [first, first + count), one call at a time.
  void score(std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t session = first; session < first + count; ++session) {
      const std::int32_t features[] = {0, 0};
      const Clock::time_point start = Clock::now();
      const ScoreCallResult call =
          client.score(session, "Chrome 100", features);
      const Clock::time_point end = Clock::now();
      if (call.outcome != ScoreClientOutcome::kOk) {
        ++lost;
      } else if (call.response.session_id != session) {
        ++corrupted;
      } else {
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
      }
    }
  }

  // Stops the proxy and folds the counters and the pooled p99.
  void finish() {
    proxy.stop();
    client_stats = client.stats();
    chaos = proxy.stats();
    if (latencies_us.empty()) return;
    // Linear interpolation between the two ranks around the 99th.
    std::sort(latencies_us.begin(), latencies_us.end());
    const double rank = 0.99 * static_cast<double>(latencies_us.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, latencies_us.size() - 1);
    p99_us = latencies_us[lo] + (latencies_us[hi] - latencies_us[lo]) *
                                    (rank - static_cast<double>(lo));
  }

  ChaosProxy proxy;
  ScoreClient client;
  std::vector<double> latencies_us;
  std::size_t lost = 0;       // outcome != kOk
  std::size_t corrupted = 0;  // accepted verdict for the wrong session
  double p99_us = 0.0;
  ScoreClientStats client_stats;
  ChaosProxyStats chaos;
};

TEST(ChaosProxy, HedgingCutsTailLatencyUnderInjectedStalls) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  ScoreServer server(models, server_config());
  ASSERT_TRUE(server.running()) << server.error();

  StallArm unhedged(server.port(), 0ms);
  StallArm hedged(server.port(), 5ms);
  ASSERT_TRUE(unhedged.proxy.running()) << unhedged.proxy.error();
  ASSERT_TRUE(hedged.proxy.running()) << hedged.proxy.error();
  constexpr std::uint64_t kRounds = 8;
  constexpr std::uint64_t kCallsPerRound = 50;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    StallArm& first = round % 2 == 0 ? unhedged : hedged;
    StallArm& second = round % 2 == 0 ? hedged : unhedged;
    first.score(1 + round * kCallsPerRound, kCallsPerRound);
    second.score(1 + round * kCallsPerRound, kCallsPerRound);
  }
  unhedged.finish();
  hedged.finish();
  EXPECT_EQ(unhedged.lost, 0u);
  EXPECT_EQ(unhedged.corrupted, 0u);
  EXPECT_EQ(hedged.lost, 0u);
  EXPECT_EQ(hedged.corrupted, 0u);
  EXPECT_GT(unhedged.chaos.delays, 0u) << "no stall injected, unhedged arm";
  EXPECT_GT(hedged.chaos.delays, 0u) << "no stall injected, hedged arm";
  EXPECT_GT(hedged.client_stats.hedge_wins, 0u)
      << "no hedge ever won; the arms are indistinguishable";
  EXPECT_LT(hedged.p99_us, unhedged.p99_us)
      << "hedging did not improve p99 under stalls";
}

// The headline soak.  Faults ride the response direction, where every
// mutilation is detectable by construction (session echo + top-bit
// corruption + typed wire errors); the client's retry/hedge machinery
// must absorb all of it.
TEST(ChaosSoak, ZeroLostZeroCorruptedUnderMixedFaults) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  ScoreServer server(models, server_config());
  ASSERT_TRUE(server.running()) << server.error();

  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = server.port();
  proxy_config.seed = 0x50A6;
  // Faults ride the response direction only: a mutilated *request*
  // can legitimately be refused 400 (a terminal, correct outcome),
  // which would make "zero lost" unprovable.  Response-side faults
  // are all detectable, so the client must recover from every one.
  proxy_config.fault_client_to_upstream = false;
  proxy_config.reset_probability = 0.01;
  proxy_config.truncate_probability = 0.01;
  proxy_config.corrupt_probability = 0.01;
  proxy_config.delay_probability = 0.03;
  proxy_config.delay = 25ms;
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.running()) << proxy.error();

  ScoreClientConfig client_config;
  client_config.port = proxy.port();
  client_config.io_timeout = 500ms;
  client_config.deadline = 4000ms;
  client_config.max_attempts = 6;
  client_config.initial_backoff = 5ms;
  client_config.max_backoff = 50ms;
  client_config.hedge_delay = 60ms;
  client_config.breaker_threshold = 1000;  // the soak wants every fault felt
  ScoreClient client(client_config);

  constexpr int kThreads = 2;
  constexpr int kCallsPerThread = 120;
  std::vector<std::string> failures[kThreads];
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const std::uint64_t session =
            static_cast<std::uint64_t>(t) * kCallsPerThread + i + 1;
        const bool fraud = session % 2 == 0;
        const std::int32_t clean[] = {0, 0};
        const std::int32_t bot[] = {10, 10};
        const ScoreCallResult result =
            client.score(session, "Chrome 100", fraud ? bot : clean);
        // zero lost:
        if (result.outcome != ScoreClientOutcome::kOk) {
          failures[t].push_back("session " + std::to_string(session) +
                                " lost: " + result.error);
          continue;
        }
        // zero corrupted: the verdict must be the model's known answer
        // for these features, addressed to this session.
        const WireScoreResponse& v = result.response;
        if (v.session_id != session ||
            v.status != serve::ResponseStatus::kScored ||
            v.flagged != fraud ||
            v.predicted_cluster != (fraud ? 1u : 0u) || v.model_version != 1) {
          failures[t].push_back("session " + std::to_string(session) +
                                " corrupted verdict");
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& f : failures[t]) ADD_FAILURE() << f;
  }

  proxy.stop();
  const ChaosProxyStats chaos = proxy.stats();
  const ScoreClientStats stats = client.stats();
  EXPECT_EQ(stats.ok, static_cast<std::uint64_t>(kThreads * kCallsPerThread));
  // The soak only means something if chaos actually happened.
  EXPECT_GT(chaos.resets + chaos.truncates + chaos.corrupts, 0u)
      << "chaos proxy injected nothing — probabilities or traffic too low";
  EXPECT_GT(chaos.delays, 0u);
  // ... and the client actually had to work for it.
  EXPECT_GT(stats.attempts, stats.calls)
      << "no retries happened; the fault rates are too low to test anything";
}


// The chaos differential.  ChaosSoak's toy model answers every session
// with one of two known verdicts; here a seeded session stream of
// benign, privacy-browser and fraud-browser sessions is scored on the
// production model (28 features) through the same response-side chaos
// (delays, truncations, resets, corruption), with the breaker at its
// defaults, while a second model is published mid-stream.  Every kOk
// answer must equal offline Polygraph::score on
// ModelRegistry::at_version(response.model_version), with the claimed
// UA parsed exactly as the server parses it; both versions must answer,
// and no call may end in anything but a verified verdict.
TEST(ChaosDifferential, EveryVerdictMatchesOfflineScoringAcrossAPublish) {
  core::Polygraph first = wire_load::train_production_model(6'000);
  core::Polygraph second = wire_load::train_production_model(9'000);
  const std::vector<std::size_t> indices = first.config().feature_indices;

  // Privacy and fraud rates far above production's, so all three
  // kinds show up in a stream short enough for the sanitizer pass.
  traffic::TrafficConfig live;
  live.seed = 0xD1FFu;
  live.p_fraud = 0.15;
  live.p_brave_standard = 0.08;
  live.p_tor = 0.02;
  traffic::SessionGenerator generator(live);
  constexpr std::size_t kSessions = 240;
  std::vector<traffic::SessionRecord> sessions;
  std::set<traffic::SessionKind> kinds;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(generator.next_session(indices));
    kinds.insert(sessions.back().kind);
  }
  ASSERT_TRUE(kinds.contains(traffic::SessionKind::kBenign));
  ASSERT_TRUE(kinds.contains(traffic::SessionKind::kPrivacyBrowser));
  ASSERT_TRUE(kinds.contains(traffic::SessionKind::kFraudBrowser));

  serve::ModelRegistry models;
  ScoreServer server(models, wire_load::server_config(first, kSessions));
  ASSERT_EQ(models.publish(std::move(first)), 1u);
  ASSERT_TRUE(server.running()) << server.error();

  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = server.port();
  proxy_config.seed = 0xD1FF;
  proxy_config.fault_client_to_upstream = false;  // see ChaosSoak
  proxy_config.reset_probability = 0.03;
  proxy_config.truncate_probability = 0.03;
  proxy_config.corrupt_probability = 0.03;
  proxy_config.delay_probability = 0.05;
  proxy_config.delay = 25ms;
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.running()) << proxy.error();

  ScoreClientConfig client_config;
  client_config.port = proxy.port();
  client_config.io_timeout = 500ms;
  client_config.deadline = 4000ms;
  client_config.max_attempts = 6;
  client_config.initial_backoff = 5ms;
  client_config.max_backoff = 50ms;
  client_config.hedge_delay = 60ms;
  ScoreClient client(client_config);

  // Two callers split the stream; this thread publishes the second
  // model once half of it is answered.
  constexpr std::size_t kCallers = 2;
  std::vector<ScoreCallResult> results(kSessions);
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t i = t; i < kSessions; i += kCallers) {
        results[i] = client.score(i + 1, sessions[i].user_agent,
                                  sessions[i].features);
        done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  while (done.load(std::memory_order_acquire) < kSessions / 2) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(models.publish(std::move(second)), 2u);
  for (std::thread& caller : callers) caller.join();
  proxy.stop();

  std::set<std::uint64_t> versions;
  std::size_t models_disagree = 0;
  core::ScoringScratch scratch;
  const auto offline = [&](std::uint64_t version,
                           const traffic::SessionRecord& session,
                           const ua::UserAgent& claimed) {
    return models.at_version(version).model->score(
        std::span<const std::int32_t>(session.features), claimed, scratch);
  };
  for (std::size_t i = 0; i < kSessions; ++i) {
    const ScoreCallResult& call = results[i];
    ASSERT_EQ(call.outcome, ScoreClientOutcome::kOk)
        << "session " << i + 1 << ": " << call.error;
    const WireScoreResponse& v = call.response;
    ASSERT_EQ(v.session_id, i + 1);
    ASSERT_EQ(v.status, serve::ResponseStatus::kScored) << "session " << i + 1;
    ASSERT_TRUE(models.at_version(v.model_version))
        << "session " << i + 1 << " names unpublished version "
        << v.model_version;
    versions.insert(v.model_version);

    std::string frame;
    render_score_request(i + 1, sessions[i].user_agent, sessions[i].features,
                         &frame);
    WireScoreRequest parsed;
    ASSERT_EQ(parse_score_request(frame, &parsed), WireError::kOk);
    const core::Detection want =
        offline(v.model_version, sessions[i], parsed.claimed);
    EXPECT_EQ(v.flagged, want.flagged) << "session " << i + 1;
    EXPECT_EQ(v.risk_factor, want.risk_factor) << "session " << i + 1;
    EXPECT_EQ(v.predicted_cluster, want.predicted_cluster)
        << "session " << i + 1;

    const core::Detection other =
        offline(v.model_version == 1 ? 2 : 1, sessions[i], parsed.claimed);
    models_disagree += other.flagged != want.flagged ||
                       other.risk_factor != want.risk_factor ||
                       other.predicted_cluster != want.predicted_cluster;
  }
  EXPECT_EQ(versions, (std::set<std::uint64_t>{1, 2}));
  // Attributing a verdict to the wrong version is only detectable where
  // the two models disagree.
  EXPECT_GT(models_disagree, 0u);

  const ChaosProxyStats chaos = proxy.stats();
  EXPECT_GT(chaos.resets + chaos.truncates + chaos.corrupts, 0u);
  EXPECT_GT(client.stats().retries, 0u)
      << "no backoff retry ran; the fault rates are too low";
}

}  // namespace
}  // namespace bp::net
