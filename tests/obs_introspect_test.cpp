// Tests for the live introspection server: every endpoint fetched over
// a real TCP socket (ephemeral port), readiness flipping around model
// publishes, HTTP plumbing edge cases, and the concurrent
// scrape-under-mutation satellite (render /metrics and /tracez from N
// client threads while writers hammer the instruments — must stay
// parseable and TSan-clean).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/polygraph.h"
#include "net/http_common.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/introspect/server.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/model_registry.h"

namespace bp::obs::introspect {
namespace {

// Send a raw payload and return everything the server answers —
// exercises the malformed-request paths HttpClient cannot produce.
std::string raw_request(std::uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, payload.data(), payload.size(), 0) ==
          static_cast<ssize_t>(payload.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

// The cheap hand-assembled model the serve tests use: enough to make
// ModelRegistry::publish accept it.
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

AuditRecord audit_record(std::uint64_t session_id, bool flagged) {
  AuditRecord record;
  record.session_id = session_id;
  record.model_version = 1;
  record.claimed = {ua::Vendor::kChrome, 100, ua::Os::kWindows10};
  record.risk_factor = flagged ? 4 : 0;
  if (flagged) record.tags = AuditRecord::kFlagged;
  return record;
}

// ------------------------------ HTTP plumbing ------------------------------

TEST(ObsIntrospectHttp, ParsesRequestHead) {
  net::HttpRequest request;
  ASSERT_TRUE(net::parse_request_head(
      "GET /auditz?n=50 HTTP/1.1\r\nHost: x\r\n\r\n", &request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/auditz?n=50");
  EXPECT_EQ(request.path, "/auditz");
  EXPECT_EQ(request.query, "n=50");

  ASSERT_TRUE(net::parse_request_head("GET / HTTP/1.0\r\n\r\n", &request));
  EXPECT_EQ(request.path, "/");
  EXPECT_TRUE(request.query.empty());

  EXPECT_FALSE(net::parse_request_head("garbage", &request));
  EXPECT_FALSE(net::parse_request_head("GET /x SMTP/1.1\r\n", &request));
  EXPECT_FALSE(net::parse_request_head("GET no-leading-slash HTTP/1.1\r\n",
                                  &request));
}

TEST(ObsIntrospectHttp, QueryUintChecked) {
  std::uint64_t value = 99;
  EXPECT_EQ(net::query_uint_checked("n=50", "n", &value),
            net::QueryParam::kOk);
  EXPECT_EQ(value, 50u);
  value = 99;
  EXPECT_EQ(net::query_uint_checked("a=1", "n", &value),
            net::QueryParam::kAbsent);
  EXPECT_EQ(value, 99u);  // untouched on absent
  EXPECT_EQ(net::query_uint_checked("n=abc", "n", &value),
            net::QueryParam::kMalformed);
  EXPECT_EQ(net::query_uint_checked("n=", "n", &value),
            net::QueryParam::kMalformed);
  EXPECT_EQ(net::query_uint_checked("n=99999999999999999999", "n", &value),
            net::QueryParam::kMalformed);  // overflow is a typo, not 0
  EXPECT_EQ(value, 99u);
}

// ------------------------------- endpoints -------------------------------

TEST(ObsIntrospect, ServesAllEndpointsOverRealTcp) {
  MetricsRegistry metrics;
  metrics.counter("bp_test_scored_total", "sessions scored").add(42);
  metrics.gauge("bp_test_queue_depth", "queued requests").set(3);

  TraceSink trace;
  trace.record({1, 1, 0, "request", 0, 1});
  trace.record({2, 1, 0, "request", 0, 1});
  trace.record({2, 2, 1, "queue_wait", 0, 1});

  AuditTrail audit;
  audit.record(audit_record(7, true));

  serve::ModelRegistry models;
  ASSERT_EQ(models.publish(tiny_model()), 1u);

  Sources sources;
  sources.metrics = &metrics;
  sources.trace = &trace;
  sources.audit = &audit;
  sources.health = [&] {
    HealthSignals signals;
    signals.model_version = models.version();
    return signals;
  };
  sources.statusz_extra = [] { return std::string("example_line: 1\n"); };

  IntrospectionServer server(sources);
  ASSERT_TRUE(server.running()) << server.error();
  ASSERT_NE(server.port(), 0);

  const auto get = [&](const std::string& target) {
    return net::HttpClient("127.0.0.1", server.port())
        .get(target, /*close_connection=*/true);
  };

  const net::HttpResult metrics_result = get("/metrics");
  ASSERT_EQ(metrics_result.status, 200) << metrics_result.error;
  EXPECT_NE(metrics_result.body.find("# TYPE bp_test_scored_total counter"),
            std::string::npos);
  EXPECT_NE(metrics_result.body.find("bp_test_scored_total 42"),
            std::string::npos);

  const net::HttpResult json_result = get("/metrics.json");
  ASSERT_EQ(json_result.status, 200);
  EXPECT_NE(json_result.body.find("\"bp_test_scored_total\": 42"),
            std::string::npos);
  EXPECT_EQ(json_result.body.front(), '{');

  const net::HttpResult healthz = get("/healthz");
  ASSERT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  const net::HttpResult readyz = get("/readyz");
  ASSERT_EQ(readyz.status, 200);
  EXPECT_EQ(readyz.body, "ok\n");

  const net::HttpResult statusz = get("/statusz");
  ASSERT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("ready: true"), std::string::npos);
  EXPECT_NE(statusz.body.find("model_version: 1"), std::string::npos);
  EXPECT_NE(statusz.body.find("example_line: 1"), std::string::npos);

  const net::HttpResult tracez = get("/tracez");
  ASSERT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("trace=1 span=1 parent=0 name=request"),
            std::string::npos);
  EXPECT_NE(tracez.body.find("trace=2 span=2 parent=1 name=queue_wait"),
            std::string::npos);

  // ?trace=<id> keeps exactly that trace's events.
  const net::HttpResult filtered = get("/tracez?trace=2");
  ASSERT_EQ(filtered.status, 200);
  EXPECT_EQ(filtered.body.find("trace=1 "), std::string::npos);
  EXPECT_NE(filtered.body.find("trace=2 span=1 parent=0 name=request"),
            std::string::npos);
  EXPECT_NE(filtered.body.find("trace=2 span=2 parent=1 name=queue_wait"),
            std::string::npos);

  // ?n=K keeps the K most recent matching events.
  const net::HttpResult limited = get("/tracez?trace=2&n=1");
  ASSERT_EQ(limited.status, 200);
  EXPECT_EQ(limited.body.find("span=1"), std::string::npos);
  EXPECT_NE(limited.body.find("trace=2 span=2"), std::string::npos);

  // A filter that matches nothing is an empty 200, not an error; a
  // malformed value is the operator's typo and is refused 400.
  EXPECT_EQ(get("/tracez?trace=777").status, 200);
  EXPECT_TRUE(get("/tracez?trace=777").body.empty());
  EXPECT_EQ(get("/tracez?trace=bogus").status, 400);
  EXPECT_EQ(get("/tracez?n=bogus").status, 400);

  const net::HttpResult auditz = get("/auditz?n=10");
  ASSERT_EQ(auditz.status, 200);
  EXPECT_NE(auditz.body.find("\"session_id\": 7"), std::string::npos);
  EXPECT_NE(auditz.body.find("\"flagged\": true"), std::string::npos);

  const net::HttpResult missing = get("/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_FALSE(missing.body.empty());

  // Non-GET and malformed requests are refused, not crashed on.
  EXPECT_NE(raw_request(server.port(),
                        "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(raw_request(server.port(), "garbage\r\n\r\n").find("400"),
            std::string::npos);

  EXPECT_GE(server.requests(), 9u);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
}

TEST(ObsIntrospect, EndpointsWithoutSourcesAnswer404OrBareLiveness) {
  IntrospectionServer server(Sources{});
  ASSERT_TRUE(server.running()) << server.error();
  const auto get = [&](const std::string& target) {
    return net::HttpClient("127.0.0.1", server.port())
        .get(target, /*close_connection=*/true);
  };
  EXPECT_EQ(get("/metrics").status, 404);
  EXPECT_EQ(get("/metrics.json").status, 404);
  EXPECT_EQ(get("/tracez").status, 404);
  EXPECT_EQ(get("/auditz").status, 404);
  // No health signals: reaching the handler is the liveness proof, but
  // nothing can vouch for serving fitness.
  EXPECT_EQ(get("/healthz").status, 200);
  EXPECT_EQ(get("/readyz").status, 503);
  EXPECT_EQ(get("/statusz").status, 200);
}

TEST(ObsIntrospect, ReadyzFlipsWithPublish) {
  serve::ModelRegistry models;
  Sources sources;
  sources.health = [&] {
    HealthSignals signals;
    signals.model_version = models.version();
    return signals;
  };
  IntrospectionServer server(sources);
  ASSERT_TRUE(server.running()) << server.error();
  const auto readyz = [&] {
    return net::HttpClient("127.0.0.1", server.port())
        .get("/readyz", /*close_connection=*/true);
  };

  // Nothing published: alive, not fit to serve.
  EXPECT_EQ(
      net::HttpClient("127.0.0.1", server.port())
          .get("/healthz", /*close_connection=*/true).status, 200);
  const net::HttpResult before = readyz();
  EXPECT_EQ(before.status, 503);
  EXPECT_NE(before.body.find("nothing published"), std::string::npos);

  // Publish: readiness flips on the next scrape, no restart involved.
  ASSERT_EQ(models.publish(tiny_model()), 1u);
  EXPECT_EQ(readyz().status, 200);
}

TEST(ObsIntrospect, AuditzBoundsToLastN) {
  AuditTrail audit;
  for (std::uint64_t i = 0; i < 10; ++i) {
    audit.record(audit_record(i, true));
  }
  Sources sources;
  sources.audit = &audit;
  IntrospectionServer server(sources);
  ASSERT_TRUE(server.running()) << server.error();

  const net::HttpResult last3 =
      net::HttpClient("127.0.0.1", server.port())
          .get("/auditz?n=3", /*close_connection=*/true);
  ASSERT_EQ(last3.status, 200);
  std::size_t lines = 0;
  for (char c : last3.body) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
  // The most recent records, oldest of them first.
  EXPECT_EQ(last3.body.find("\"session_id\": 6"), std::string::npos);
  EXPECT_NE(last3.body.find("\"session_id\": 7"), std::string::npos);
  EXPECT_NE(last3.body.find("\"session_id\": 9"), std::string::npos);
}

TEST(ObsIntrospect, TracezRendersTheMostRecentEventsByDefault) {
  TraceSink trace;  // 8192 slots, every trace kept
  for (std::uint64_t i = 0; i < trace.config().capacity; ++i) {
    trace.record({i + 1, 1, 0, "request", 0, 1});
  }
  Sources sources;
  sources.trace = &trace;
  IntrospectionServer server(sources);
  ASSERT_TRUE(server.running()) << server.error();
  const auto lines_of = [&](const std::string& target) {
    const net::HttpResult result =
        net::HttpClient("127.0.0.1", server.port())
            .get(target, /*close_connection=*/true);
    EXPECT_EQ(result.status, 200) << target;
    return static_cast<std::size_t>(
        std::count(result.body.begin(), result.body.end(), '\n'));
  };
  // A full ring renders only its newest kTracezDefaultEvents events
  // without n=; an explicit n keeps its meaning, and n=0 is the ring.
  EXPECT_EQ(lines_of("/tracez"), kTracezDefaultEvents);
  EXPECT_EQ(lines_of("/tracez?n=1000"), 1000u);
  EXPECT_EQ(lines_of("/tracez?n=0"), trace.config().capacity);
  const std::string newest =
      "trace=" + std::to_string(trace.config().capacity) + " ";
  EXPECT_NE(net::HttpClient("127.0.0.1", server.port())
                .get("/tracez", /*close_connection=*/true)
                .body.find(newest),
            std::string::npos);
}

TEST(ObsIntrospect, BindFailureReportsInsteadOfRunning) {
  net::ListenerConfig config;
  config.bind_address = "not-an-address";
  IntrospectionServer server(Sources{}, config);
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(server.error().empty());
  server.stop();  // must be safe on a never-started server
}

// Satellite: scrape /metrics and /tracez from N client threads while
// writer threads hammer the same instruments the way engine workers
// do.  Every response must be a complete parseable exposition; the
// whole test must run clean under TSan (tier1 sanitizer pass matches
// this suite).
TEST(ObsIntrospect, ConcurrentScrapeUnderMutation) {
  MetricsRegistry metrics;
  Counter& scored = metrics.counter("bp_load_scored_total", "scored");
  Histogram& latency = metrics.histogram("bp_load_latency_us", "latency");
  TraceSink trace;

  Sources sources;
  sources.metrics = &metrics;
  sources.trace = &trace;
  IntrospectionServer server(sources);
  ASSERT_TRUE(server.running()) << server.error();

  constexpr int kWriters = 4;
  constexpr int kScrapers = 4;
  constexpr int kScrapesEach = 15;
  std::atomic<bool> stop_writers{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::uint64_t i = 0;
      while (!stop_writers.load(std::memory_order_relaxed)) {
        scored.increment(w);
        latency.observe(50 + (i % 1'000), w);
        TraceEvent event;
        event.trace_id = static_cast<std::uint64_t>(w) << 32 | i;
        event.span_id = 1;
        event.name = "score";
        trace.record(event);
        ++i;
      }
    });
  }

  std::atomic<int> bad_responses{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < kScrapesEach; ++i) {
        const net::HttpResult metrics_result =
            net::HttpClient("127.0.0.1", server.port())
                .get("/metrics", /*close_connection=*/true);
        if (metrics_result.status != 200 ||
            metrics_result.body.find(
                "# TYPE bp_load_scored_total counter") == std::string::npos ||
            metrics_result.body.find("bp_load_latency_us_count") ==
                std::string::npos) {
          bad_responses.fetch_add(1);
        }
        const net::HttpResult tracez =
            net::HttpClient("127.0.0.1", server.port())
                .get("/tracez", /*close_connection=*/true);
        if (tracez.status != 200) bad_responses.fetch_add(1);
      }
    });
  }

  for (std::thread& s : scrapers) s.join();
  stop_writers.store(true);
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GE(server.requests(), static_cast<std::uint64_t>(kScrapers) *
                                   kScrapesEach * 2);

  // With writers quiescent, one final scrape must agree with the
  // folded instrument values exactly.
  const net::HttpResult final_scrape =
      net::HttpClient("127.0.0.1", server.port())
          .get("/metrics", /*close_connection=*/true);
  ASSERT_EQ(final_scrape.status, 200);
  EXPECT_NE(final_scrape.body.find("bp_load_scored_total " +
                                   std::to_string(scored.value())),
            std::string::npos);
}

}  // namespace
}  // namespace bp::obs::introspect
