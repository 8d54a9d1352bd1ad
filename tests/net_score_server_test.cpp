// ScoreServer tests: POST /score over a real TCP socket — correct
// verdicts, keep-alive reuse, raw pipelining, the full malformed-frame
// suite at the HTTP layer, admission control, hot swap under concurrent
// client load (the TSan/ASan soak), zero loss under open-loop
// popularity traffic, and ordered shutdown.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/polygraph.h"
#include "net/http_common.h"
#include "net/score_server.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "obs/prof/prof.h"
#include "serve/model_registry.h"
#include "util/fault.h"
#include "wire_load.h"

namespace bp::net {
namespace {

// Two PCA dims, two clusters: Chrome 100 expects cluster 0 at (0,0);
// features near (10,10) land in cluster 1 and flag.
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

ScoreServerConfig small_config() {
  ScoreServerConfig config;
  config.router.shards = 2;
  config.router.engine.workers = 1;
  config.expected_features = 2;
  return config;
}

std::string request_frame(std::uint64_t session, std::string_view ua,
                          std::vector<std::int32_t> features) {
  std::string frame;
  render_score_request(session, ua, features, &frame);
  return frame;
}

// Raw socket helper for pipelining tests: connect, send `payload` in
// one burst, read until `expect_responses` response frames arrived (or
// the peer closes).
std::string raw_burst(std::uint16_t port, const std::string& payload,
                      std::size_t expect_responses) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, payload.data(), payload.size(), 0) ==
          static_cast<ssize_t>(payload.size())) {
    char buf[4096];
    ssize_t n;
    std::size_t seen = 0;
    while (seen < expect_responses &&
           (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      seen = 0;
      for (std::size_t pos = 0;
           (pos = out.find("HTTP/1.1 ", pos)) != std::string::npos;
           pos += 9) {
        ++seen;
      }
    }
  }
  ::close(fd);
  return out;
}

class NetScoreServerTest : public ::testing::Test {
 protected:
  void StartServer(ScoreServerConfig config = small_config(),
                   bool publish = true, core::Polygraph model = tiny_model()) {
    if (publish) {
      ASSERT_TRUE(models_.publish(std::move(model)));
    }
    server_ = std::make_unique<ScoreServer>(models_, std::move(config));
    ASSERT_TRUE(server_->running()) << server_->error();
  }

  serve::ModelRegistry models_;
  // Declared before server_, so a server registered into it is gone
  // before the registry is.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<ScoreServer> server_;
};

// ------------------------------ verdict paths ------------------------------

TEST_F(NetScoreServerTest, ScoresOverRealTcp) {
  StartServer();
  // Chrome 100 at (0,0): expected cluster, clean verdict.
  HttpResult clean =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(7, "Chrome 100", {0, 0}),
                "application/x-bpwire", /*close_connection=*/true);
  ASSERT_EQ(clean.status, 200) << clean.error;
  WireScoreResponse verdict;
  ASSERT_EQ(parse_score_response(clean.body, &verdict), WireError::kOk)
      << clean.body;
  EXPECT_EQ(verdict.session_id, 7u);
  EXPECT_EQ(verdict.status, serve::ResponseStatus::kScored);
  EXPECT_FALSE(verdict.flagged);
  EXPECT_EQ(verdict.predicted_cluster, 0u);
  EXPECT_EQ(verdict.model_version, 1u);

  // Chrome 100 claiming but fingerprinting at (10,10): cluster
  // mismatch, flagged.
  HttpResult fraud =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(8, "Chrome 100", {10, 10}),
                "application/x-bpwire", /*close_connection=*/true);
  ASSERT_EQ(fraud.status, 200);
  ASSERT_EQ(parse_score_response(fraud.body, &verdict), WireError::kOk);
  EXPECT_EQ(verdict.session_id, 8u);
  EXPECT_TRUE(verdict.flagged);
  EXPECT_EQ(verdict.predicted_cluster, 1u);
  EXPECT_EQ(server_->responses(), 2u);
}

// No model published: the ingress says so at once with
// an explicit 503 — it never parks the request waiting for a publish —
// and scores normally once a model lands.
TEST_F(NetScoreServerTest, NoModelWithoutDegradeIsAnImmediateFiveOhThree) {
  StartServer(small_config(), /*publish=*/false);
  const auto start = std::chrono::steady_clock::now();
  HttpResult result =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(1, "Chrome 100", {0, 0}),
                "application/x-bpwire", /*close_connection=*/true);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(result.status, 503) << result.error;
  EXPECT_EQ(result.body, "no model published\n");
  EXPECT_EQ(server_->admission_rejected(), 1u);
  EXPECT_EQ(server_->inflight(), 0u);

  ASSERT_TRUE(models_.publish(tiny_model()));
  result =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(2, "Chrome 100", {0, 0}),
                "application/x-bpwire", /*close_connection=*/true);
  ASSERT_EQ(result.status, 200) << result.error;
  WireScoreResponse verdict;
  ASSERT_EQ(parse_score_response(result.body, &verdict), WireError::kOk);
  EXPECT_EQ(verdict.status, serve::ResponseStatus::kScored);
  EXPECT_EQ(verdict.model_version, 1u);
}

// ----------------------------- HTTP-layer policy -----------------------------

TEST_F(NetScoreServerTest, RefusesWrongVerbAndPath) {
  StartServer();
  EXPECT_EQ(
      HttpClient("127.0.0.1", server_->port())
          .get("/score", /*close_connection=*/true).status, 405);
  EXPECT_EQ(
      HttpClient("127.0.0.1", server_->port())
          .post("/metrics", request_frame(1, "Chrome 100", {0, 0}),
                "application/x-bpwire", /*close_connection=*/true)
          .status,
      404);
}

TEST_F(NetScoreServerTest, MalformedFramesGetTypedFourHundreds) {
  StartServer();
  const struct {
    std::string body;
    std::string expect_name;
  } cases[] = {
      {"", "empty_frame"},
      {"garbage", "bad_magic"},
      {"bp9|1|Chrome 100|0 0", "bad_version"},
      {"bp1|1", "truncated"},
      {"bp1|nope|Chrome 100|0 0", "bad_session_id"},
      {"bp1|1||0 0", "bad_user_agent"},
      {"bp1|1|Chrome 100|", "no_features"},
      {"bp1|1|Chrome 100|0 x", "bad_feature"},
  };
  for (const auto& test_case : cases) {
    HttpResult result =
        HttpClient("127.0.0.1", server_->port())
            .post("/score", test_case.body, "application/x-bpwire",
                  /*close_connection=*/true);
    EXPECT_EQ(result.status, 400) << test_case.expect_name;
    EXPECT_NE(result.body.find(test_case.expect_name), std::string::npos)
        << result.body;
  }
  // Feature-count mismatch against the configured model width.
  HttpResult mismatch =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(1, "Chrome 100", {1, 2, 3}),
                "application/x-bpwire", /*close_connection=*/true);
  EXPECT_EQ(mismatch.status, 400);
  EXPECT_NE(mismatch.body.find("expected 2 features"), std::string::npos);
  EXPECT_EQ(server_->malformed(), 9u);
  EXPECT_EQ(server_->responses(), 0u);
}

// A 400 refusal is visible to a scrape, not only to malformed().
TEST_F(NetScoreServerTest, MalformedFrameReachesTheMetricsRegistry) {
  ScoreServerConfig config = small_config();
  config.registry = &metrics_;
  StartServer(std::move(config));
  HttpResult result =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", "garbage", "application/x-bpwire",
                /*close_connection=*/true);
  EXPECT_EQ(result.status, 400) << result.error;
  const std::string rendered = metrics_.render_prometheus();
  EXPECT_NE(rendered.find("\nbp_net_ingress_malformed_total 1\n"),
            std::string::npos)
      << rendered;
}

TEST_F(NetScoreServerTest, OversizedBodyIsRefused) {
  ScoreServerConfig config = small_config();
  config.listener.max_body_bytes = 256;
  StartServer(std::move(config));
  const std::string big(1024, '1');
  EXPECT_EQ(
      HttpClient("127.0.0.1", server_->port())
          .post("/score", big, "application/x-bpwire",
                /*close_connection=*/true).status, 413);
}

// --------------------------- keep-alive + pipelining ---------------------------

TEST_F(NetScoreServerTest, KeepAliveReusesOneConnection) {
  StartServer();
  HttpClient client("127.0.0.1", server_->port());
  for (std::uint64_t session = 1; session <= 20; ++session) {
    HttpResult result =
        client.post("/score", request_frame(session, "Chrome 100", {0, 0}));
    ASSERT_EQ(result.status, 200) << client.error();
    WireScoreResponse verdict;
    ASSERT_EQ(parse_score_response(result.body, &verdict), WireError::kOk);
    EXPECT_EQ(verdict.session_id, session);
  }
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(server_->responses(), 20u);
}

TEST_F(NetScoreServerTest, PipelinedBurstAnswersInOrder) {
  StartServer();
  // Five requests written in one burst before any response is read.
  std::string payload;
  for (std::uint64_t session = 1; session <= 5; ++session) {
    const std::string frame = request_frame(session, "Chrome 100", {0, 0});
    payload += "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: " +
               std::to_string(frame.size()) + "\r\n\r\n" + frame;
  }
  const std::string raw = raw_burst(server_->port(), payload, 5);

  // All five answered, in request order (HTTP pipelining contract).
  std::vector<std::uint64_t> order;
  std::size_t pos = 0;
  while ((pos = raw.find("bp1|", pos)) != std::string::npos) {
    WireScoreResponse verdict;
    const std::size_t eol = raw.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    ASSERT_EQ(parse_score_response(raw.substr(pos, eol - pos + 1), &verdict),
              WireError::kOk);
    order.push_back(verdict.session_id);
    pos = eol;
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

// Pipelined requests split at every byte: the same 2- and 3-request
// bursts are delivered once unsplit and once with every server read
// clamped to 1 byte (net.sock.recv.short at probability 1), so each
// byte boundary of every head and body is also a read boundary.  The
// client side (raw_burst) uses plain ::recv/::send and is unaffected.
// Both deliveries must yield the same verdicts, in request order.
TEST_F(NetScoreServerTest, PipelinedBurstsSplitAtEveryByteAnswerAsUnsplit) {
  StartServer();
  using Verdict =
      std::tuple<std::uint64_t, serve::ResponseStatus, bool, int,
                 std::uint32_t, std::uint64_t>;
  const struct {
    std::uint64_t session;
    std::string_view ua;
    std::vector<std::int32_t> features;
  } requests[] = {
      {11, "Chrome 100", {0, 0}},    // expected cluster: clean
      {12, "Chrome 100", {10, 10}},  // cluster mismatch: flagged
      {13, "Firefox 100", {0, 0}},   // UA absent from the table
      {14, "Chrome 100", {9, 11}},
      {15, "Chrome 100", {1, 0}},
  };
  const auto burst = [&](std::size_t begin, std::size_t end) {
    std::string payload;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string frame = request_frame(
          requests[i].session, requests[i].ua, requests[i].features);
      payload += "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                 std::to_string(frame.size()) + "\r\n\r\n" + frame;
    }
    return payload;
  };
  // One delivery: a burst of 2, then a burst of 3, each on its own
  // connection; every response must be a 200 carrying a verdict.
  const auto deliver = [&] {
    std::vector<Verdict> verdicts;
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{0, 2}, {2, 5}}) {
      const std::string raw =
          raw_burst(server_->port(), burst(begin, end), end - begin);
      std::size_t ok = 0;
      for (std::size_t pos = 0;
           (pos = raw.find("HTTP/1.1 200 ", pos)) != std::string::npos;
           ++pos) {
        ++ok;
      }
      EXPECT_EQ(ok, end - begin) << raw;
      std::size_t pos = 0;
      while ((pos = raw.find("bp1|", pos)) != std::string::npos) {
        const std::size_t eol = raw.find('\n', pos);
        if (eol == std::string::npos) break;
        WireScoreResponse verdict;
        EXPECT_EQ(
            parse_score_response(raw.substr(pos, eol - pos + 1), &verdict),
            WireError::kOk);
        verdicts.emplace_back(verdict.session_id, verdict.status,
                              verdict.flagged, verdict.risk_factor,
                              verdict.predicted_cluster, verdict.model_version);
        pos = eol;
      }
    }
    return verdicts;
  };

  const std::vector<Verdict> unsplit = deliver();
  std::vector<Verdict> split;
  {
    const util::ScopedFaults faults("net.sock.recv.short:1:17");
    split = deliver();
    // One clamped read per byte the server took in, at the least.
    EXPECT_GE(util::FaultRegistry::instance().fires("net.sock.recv.short"),
              burst(0, 2).size() + burst(2, 5).size());
  }

  ASSERT_EQ(unsplit.size(), 5u);
  for (std::size_t i = 0; i < unsplit.size(); ++i) {
    EXPECT_EQ(std::get<0>(unsplit[i]), requests[i].session);
    EXPECT_EQ(std::get<1>(unsplit[i]), serve::ResponseStatus::kScored);
  }
  EXPECT_TRUE(std::get<2>(unsplit[1]));  // the mismatch really flagged
  EXPECT_EQ(split, unsplit);
}

// ------------------------------ admission control ------------------------------

TEST_F(NetScoreServerTest, StoppedShardsAnswerFiveOhThree) {
  StartServer();
  // A request that cannot be admitted downstream (here: shards stopped
  // out from under the ingress) releases its slot and answers 503 —
  // the client is told, never hung.
  server_->router().stop();
  HttpResult result =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(1, "Chrome 100", {0, 0}),
                "application/x-bpwire", /*close_connection=*/true);
  EXPECT_EQ(result.status, 503);
  EXPECT_GE(server_->admission_rejected(), 1u);
  EXPECT_EQ(server_->inflight(), 0u);
}

TEST_F(NetScoreServerTest, ShardQueueRejectIsFiveOhThree) {
  ScoreServerConfig config = small_config();
  config.router.shards = 1;
  config.router.engine.workers = 1;
  config.router.engine.queue_capacity = 1;
  config.router.engine.overflow_policy = serve::OverflowPolicy::kReject;
  config.listener.handler_threads = 8;
  StartServer(std::move(config));
  // Flood 64 concurrent posts at a 1-deep queue.  The wire scores
  // inline on its handler threads and never touches the shard queue, so
  // every client gets an answer and none is lost to the queue bound.
  std::atomic<int> ok{0};
  std::atomic<int> unavailable{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < 8; ++i) {
        const std::uint64_t session = static_cast<std::uint64_t>(t) * 8 + i;
        HttpResult result = client.post(
            "/score", request_frame(session, "Chrome 100", {0, 0}));
        if (result.status == 200) {
          ok.fetch_add(1);
        } else if (result.status == 503) {
          unavailable.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok.load() + unavailable.load(), 64);
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(unavailable.load(), 0);
}

// ------------------------- hot swap under client load -------------------------

// The concurrent soak the sanitizers run: pipelined keep-alive clients
// hammer /score while the model is republished mid-stream.  Zero lost
// or corrupted responses; every verdict names version 1 or 2.
TEST_F(NetScoreServerTest, HotSwapUnderConcurrentLoad) {
  ScoreServerConfig config = small_config();
  config.listener.handler_threads = 4;
  StartServer(std::move(config));

  constexpr int kClients = 4;
  constexpr int kPerClient = 150;
  std::atomic<int> answered{0};
  std::atomic<int> corrupted{0};
  std::atomic<bool> saw_v2{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port(),
                        std::chrono::milliseconds(10'000));
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t session =
            static_cast<std::uint64_t>(t) * kPerClient + i;
        HttpResult result = client.post(
            "/score", request_frame(session, "Chrome 100", {0, 0}));
        if (result.status != 200) continue;  // 503 under load is legal
        WireScoreResponse verdict;
        if (parse_score_response(result.body, &verdict) != WireError::kOk ||
            verdict.session_id != session ||
            (verdict.model_version != 1 && verdict.model_version != 2)) {
          corrupted.fetch_add(1);
          continue;
        }
        if (verdict.model_version == 2) saw_v2.store(true);
        answered.fetch_add(1);
      }
    });
  }
  // Republish mid-stream: wait until a third of the traffic has been
  // answered so the swap demonstrably lands between verdicts, not
  // before or after the burst.
  while (answered.load(std::memory_order_relaxed) <
         kClients * kPerClient / 3) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(models_.publish(tiny_model()));
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(corrupted.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_TRUE(saw_v2.load()) << "no verdict ever saw the new model";
  EXPECT_EQ(server_->router().model_version(), 2u);
}

// ------------------------ lossless under open-loop load ------------------------

// The production shape over real TCP: a trained 28-feature model,
// 1000 frames of u^3-popular content over a 500-session pool, offered
// open loop at 1000 rps over 2 keep-alive connections (each request due
// at a fixed time, whatever the server's pace).  Every request is
// answered or explicitly shed; none is lost or corrupted, and the
// repeats hit the verdict cache.
TEST_F(NetScoreServerTest, OpenLoopPopularityStreamIsLossless) {
  core::Polygraph model = wire_load::train_production_model(8'000);
  const auto pool = wire_load::session_pool(model, 500, 0x5EF7E2025);
  const auto frames = wire_load::popularity_frames(pool, 1'000);
  ScoreServerConfig config = wire_load::server_config(model, pool.size());
  StartServer(std::move(config), true, std::move(model));

  const wire_load::LoadResult load =
      wire_load::drive(server_->port(), frames, 1'000.0, 2, frames.size());
  EXPECT_EQ(load.lost, 0u);
  EXPECT_EQ(load.corrupted, 0u);
  EXPECT_GT(load.answered, 0u);
  EXPECT_GT(server_->router().cache_stats().hits, 0u)
      << "verdict cache never hit under popularity-skewed traffic";
}

// ------------------------------- teardown -------------------------------

TEST_F(NetScoreServerTest, StopIsOrderedAndIdempotent) {
  StartServer();
  ASSERT_EQ(
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(1, "Chrome 100", {0, 0}),
                "application/x-bpwire", /*close_connection=*/true)
          .status,
      200);
  server_->stop();
  EXPECT_EQ(server_->inflight(), 0u);
  // New connections are refused (or reset) once stopped.
  HttpResult after =
      HttpClient("127.0.0.1", server_->port())
          .post("/score", request_frame(2, "Chrome 100", {0, 0}),
                "application/x-bpwire", /*close_connection=*/true);
  EXPECT_NE(after.status, 200);
  server_->stop();  // idempotent
}

TEST_F(NetScoreServerTest, StopUnderActiveClientsAnswersEveryAdmitted) {
  ScoreServerConfig config = small_config();
  config.listener.handler_threads = 4;
  StartServer(std::move(config));
  std::atomic<bool> go{true};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port());
      std::uint64_t session = static_cast<std::uint64_t>(t) << 32;
      while (go.load(std::memory_order_acquire)) {
        client.post("/score", request_frame(++session, "Chrome 100", {0, 0}));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->stop();  // must not deadlock against blocked handlers
  go.store(false, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(server_->inflight(), 0u);
}

// ----------------------- shared client against introspect -----------------------

TEST(NetHttpClient, TransparentReconnectAfterServerSideClose) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  ScoreServerConfig config = small_config();
  ScoreServer server(models, std::move(config));
  ASSERT_TRUE(server.running());

  HttpClient client("127.0.0.1", server.port());
  std::string frame;
  render_score_request(1, "Chrome 100", std::vector<std::int32_t>{0, 0},
                       &frame);
  ASSERT_EQ(client.post("/score", frame).status, 200);
  // An error response closes the connection server-side; the next post
  // must transparently reconnect rather than fail.
  ASSERT_EQ(client.post("/score", "garbage").status, 400);
  render_score_request(2, "Chrome 100", std::vector<std::int32_t>{0, 0},
                       &frame);
  ASSERT_EQ(client.post("/score", frame).status, 200);
  EXPECT_GE(client.connects(), 2u);
}

// The listener's hardening counters ride the registry exposition while
// the server lives, and unregister cleanly when it dies (the gauges
// capture a reference to the listener).
TEST(NetScoreServerMetrics, ListenerGaugesRegisterAndUnregister) {
  obs::MetricsRegistry registry;
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  {
    ScoreServerConfig config = small_config();
    config.registry = &registry;
    ScoreServer server(models, std::move(config));
    ASSERT_TRUE(server.running()) << server.error();

    std::string frame;
    render_score_request(1, "Chrome 100", std::vector<std::int32_t>{0, 0},
                         &frame);
    ASSERT_EQ(
        HttpClient("127.0.0.1", server.port())
            .post("/score", frame, "application/x-bpwire",
                  /*close_connection=*/true).status,
        200);
    EXPECT_EQ(registry.read_value("bp_net_http_requests_total"), 1.0);
    EXPECT_EQ(registry.read_value("bp_net_http_reaped_total"), 0.0);
    EXPECT_EQ(registry.read_value("bp_net_http_slowloris_total"), 0.0);
    EXPECT_EQ(registry.read_value("bp_net_http_overloaded_total"), 0.0);
  }
  // Server gone: every listener gauge (and the inflight gauge) is gone
  // from the exposition — rendering must not touch a dead listener.
  const std::string rendered = registry.render_prometheus();
  EXPECT_EQ(rendered.find("bp_net_http_"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("bp_net_inflight"), std::string::npos) << rendered;
}


// ------------------------- wire allocation budget -------------------------

// Send one pre-rendered HTTP request on `fd` and read its response into
// the caller's stack buffer, allocating nothing.  Returns the response
// status, or -1 on a transport or framing error.
int exchange_without_allocating(int fd, std::string_view request,
                                char (&buf)[4096]) {
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return -1;
    sent += static_cast<std::size_t>(n);
  }
  std::size_t have = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, buf + have, sizeof(buf) - have, 0);
    if (n <= 0) return -1;
    have += static_cast<std::size_t>(n);
    const std::string_view got(buf, have);
    const std::size_t head_end = got.find("\r\n\r\n");
    if (head_end == std::string_view::npos) {
      if (have == sizeof(buf)) return -1;
      continue;
    }
    constexpr std::string_view kLength = "Content-Length: ";
    const std::size_t at = got.find(kLength);
    if (at == std::string_view::npos || at > head_end) return -1;
    std::size_t body = 0;
    for (std::size_t i = at + kLength.size(); got[i] >= '0' && got[i] <= '9';
         ++i) {
      body = body * 10 + static_cast<std::size_t>(got[i] - '0');
    }
    if (have < head_end + 4 + body) continue;
    if (have != head_end + 4 + body || !got.starts_with("HTTP/1.1 ")) {
      return -1;  // one request in flight, so nothing may follow
    }
    return (got[9] - '0') * 100 + (got[10] - '0') * 10 + (got[11] - '0');
  }
}

// What one wire verdict allocates on the server, parse to response
// bytes: a warmed ScoreServer on the production model, driven over one
// keep-alive connection by a client that allocates nothing
// (pre-rendered requests, a stack receive buffer), with every
// allocation in the process counted.  The counted stream revisits the
// warm-up content and brings unseen content, so cache hits and
// kernel-scored misses both run.  The budget is 0: the claimed UA
// parses without util::split, the frame renders into the connection's
// reused response body, and the content type is a view of a literal.  (It was 14, then 7: 5 in parse_label's
// util::split vector and 2 in ScoreServer::handle's response strings.)
TEST(NetWireAllocBudget, AllocationsPerVerdictStayWithinBudget) {
  if (!obs::prof::alloc_hook_linked()) {
    GTEST_SKIP() << "bp_prof_alloc not linked into this binary "
                    "(sanitizer build compiles the hook out)";
  }
  constexpr std::uint64_t kBudgetPerVerdict = 0;
  constexpr std::size_t kWarm = 1'000;
  constexpr std::size_t kCounted = 1'000;

  core::Polygraph model = wire_load::train_production_model(8'000);
  const auto pool = wire_load::session_pool(model, 500, 0x5EF7E2025);
  std::vector<std::string> requests;
  for (const std::string& frame :
       wire_load::popularity_frames(pool, kWarm + kCounted)) {
    requests.push_back("POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                       std::to_string(frame.size()) + "\r\n\r\n" + frame);
  }
  ScoreServerConfig config = wire_load::server_config(model, pool.size());
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(std::move(model)));
  ScoreServer server(models, std::move(config));
  ASSERT_TRUE(server.running()) << server.error();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  char buf[4096];
  std::size_t warm_ok = 0;
  for (std::size_t i = 0; i < kWarm; ++i) {
    warm_ok += exchange_without_allocating(fd, requests[i], buf) == 200;
  }
  ASSERT_EQ(warm_ok, kWarm);

  std::size_t counted_ok = 0;
  const obs::prof::AllocCounts before = obs::prof::alloc_counts();
  obs::prof::set_alloc_counting(true);
  for (std::size_t i = kWarm; i < kWarm + kCounted; ++i) {
    counted_ok += exchange_without_allocating(fd, requests[i], buf) == 200;
  }
  obs::prof::set_alloc_counting(false);
  const obs::prof::AllocCounts after = obs::prof::alloc_counts();
  ::close(fd);

  ASSERT_EQ(counted_ok, kCounted);
  const std::uint64_t allocations = after.allocations - before.allocations;
  EXPECT_LE(allocations, kBudgetPerVerdict * kCounted)
      << static_cast<double>(allocations) / kCounted
      << " allocations per wire verdict";
}

}  // namespace
}  // namespace bp::net
