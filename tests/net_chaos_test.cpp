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
// Run under TSan and ASan by the tier-1 sanitizer pass.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
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
  const HttpResult result = http_post("127.0.0.1", proxy.port(), "/score",
                                      frame);
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
        http_post("127.0.0.1", proxy.port(), "/score", frame,
                  "application/x-bpwire", 2000ms);
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

}  // namespace
}  // namespace bp::net
