// The network-plane hardening suite: the fault-injectable socket seam
// (net/socket_ops.h) and the listener's slow-loris / keep-alive-reaper
// defenses (DESIGN.md §15).  Everything here runs over real sockets;
// the injected faults are deterministic (util/fault.h), so a failing
// run replays.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <type_traits>

#include "net/http_common.h"
#include "net/socket_ops.h"
#include "util/fault.h"

namespace bp::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

std::chrono::milliseconds sock_timeout(int fd, int option) {
  timeval tv{};
  socklen_t len = sizeof(tv);
  if (::getsockopt(fd, SOL_SOCKET, option, &tv, &len) != 0) return -1ms;
  return std::chrono::milliseconds(tv.tv_sec * 1000 + tv.tv_usec / 1000);
}

HttpListener::Handler echo_handler() {
  return [](const HttpRequest& request, HttpResponse& response) {
    response.body = request.method + " " + request.path + " " +
                    std::string(request.body) + "\n";
  };
}

// Poll `condition` until it holds or `deadline_ms` elapses — the
// reaper acts on a handler thread's schedule, not the test's.
template <typename Fn>
bool eventually(Fn condition, int deadline_ms = 3000) {
  const Clock::time_point give_up = Clock::now() + 1ms * deadline_ms;
  while (Clock::now() < give_up) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

// --------------------------------------------------------- socket seam

// The regression the seam was built on top of: an I/O deadline must
// cover BOTH directions.  A peer that stops reading wedges send()
// exactly like a peer that stops writing wedges recv().
TEST(SockOps, SetIoTimeoutSetsBothDirections) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockops::set_io_timeout(fd, 1500ms);
  EXPECT_EQ(sock_timeout(fd, SO_RCVTIMEO), 1500ms);
  EXPECT_EQ(sock_timeout(fd, SO_SNDTIMEO), 1500ms);
  ::close(fd);
}

TEST(SockOps, PerDirectionTimeoutsAreIndependent) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockops::set_recv_timeout(fd, 100ms);
  sockops::set_send_timeout(fd, 700ms);
  EXPECT_EQ(sock_timeout(fd, SO_RCVTIMEO), 100ms);
  EXPECT_EQ(sock_timeout(fd, SO_SNDTIMEO), 700ms);
  ::close(fd);
}

// Behavioral half of the regression: with the send timeout set, a
// full socket buffer (a peer that never reads) unwedges send() within
// the deadline instead of blocking forever.
TEST(SockOps, SendUnwedgesWhenThePeerStopsReading) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  sockops::set_io_timeout(pair[0], 100ms);
  const std::string block(64 * 1024, 'x');
  const Clock::time_point start = Clock::now();
  // Nobody reads pair[1]; keep writing until the kernel buffer fills
  // and the timeout fires.
  bool timed_out = false;
  for (int i = 0; i < 1024 && !timed_out; ++i) {
    if (!sockops::send_all(pair[0], block)) {
      timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      break;
    }
  }
  EXPECT_TRUE(timed_out);
  EXPECT_LT(Clock::now() - start, 3s);
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(SockOps, InjectedEintrDoesNotTouchTheSocket) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_EQ(::send(pair[1], "hi", 2, 0), 2);
  char buf[8];
  {
    util::ScopedFaults faults("net.sock.recv.eintr:1");
    errno = 0;
    EXPECT_EQ(sockops::recv_some(pair[0], buf, sizeof(buf)), -1);
    EXPECT_EQ(errno, EINTR);
  }
  // The injected EINTR consumed nothing: the bytes are still there.
  EXPECT_EQ(sockops::recv_some(pair[0], buf, sizeof(buf)), 2);
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(SockOps, SendAllFinishesUnderInjectedPartialWrites) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  const std::string payload(997, 'p');
  // A peer must drain concurrently: one-byte sends carry large per-skb
  // kernel overhead, so an undrained socketpair fills up fast.
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n;
    while (received.size() < payload.size() &&
           (n = ::recv(pair[1], buf, sizeof(buf), 0)) > 0) {
      received.append(buf, static_cast<std::size_t>(n));
    }
  });
  {
    util::ScopedFaults faults("net.sock.send.partial:1");
    ASSERT_TRUE(sockops::send_all(pair[0], payload));
    // Every write was clamped to one byte (the final single-byte send
    // has nothing left to clamp, so it does not evaluate the point).
    EXPECT_GE(util::FaultRegistry::instance().fires("net.sock.send.partial"),
              payload.size() - 1);
  }
  reader.join();
  EXPECT_EQ(received, payload);  // fragmented, never lost
  ::close(pair[0]);
  ::close(pair[1]);
}

// The end-to-end guarantee the seam exists for: a full HTTP exchange
// survives pathological fragmentation and signal interruptions on
// both sides (listener and client share the seam in-process).
TEST(SockOps, HttpExchangeSurvivesShortReadsEintrAndPartialWrites) {
  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  util::ScopedFaults faults(
      "net.sock.recv.short:1,net.sock.send.partial:1,"
      "net.sock.recv.eintr:0.2:3,net.sock.send.eintr:0.2:5");
  const HttpResult result =
      HttpClient("127.0.0.1", listener.port(), 5000ms)
          .post("/echo", "payload", "text/plain", /*close_connection=*/true);
  ASSERT_EQ(result.status, 200) << result.error;
  EXPECT_EQ(result.body, "POST /echo payload\n");
}

TEST(SockOps, InjectedConnectRefusalIsTyped) {
  ListenerConfig config;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  HttpClient client("127.0.0.1", listener.port());
  {
    util::ScopedFaults faults("net.sock.connect:1");
    EXPECT_FALSE(client.connect());
    EXPECT_FALSE(client.error().empty());
  }
  EXPECT_TRUE(client.connect()) << client.error();
}

TEST(SockOps, InjectedResetSurfacesAsTransportError) {
  ListenerConfig config;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  util::ScopedFaults faults("net.sock.recv.reset:1");
  const Clock::time_point start = Clock::now();
  const HttpResult result =
      HttpClient("127.0.0.1", listener.port())
          .get("/x", /*close_connection=*/true);
  EXPECT_EQ(result.status, -1);
  EXPECT_FALSE(result.error.empty());
  EXPECT_LT(Clock::now() - start, 3s);  // typed failure, not a hang
}

// ------------------------------------------------- listener hardening

// A peer that sends half a request head and goes quiet is cut off at
// the header deadline with 408 — not held for io_timeout per byte.
TEST(HttpListenerHardening, SlowLorisIsCutOffAtTheHeaderDeadline) {
  ListenerConfig config;
  config.header_timeout = 150ms;
  config.io_timeout = 2000ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  const Clock::time_point start = Clock::now();
  const std::string_view partial_head = "GET /slow HTTP/1.1\r\nHos";
  ASSERT_EQ(::send(fd, partial_head.data(), partial_head.size(), 0),
            static_cast<ssize_t>(partial_head.size()));
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  EXPECT_NE(response.find("408 Request Timeout"), std::string::npos)
      << response;
  // Cut at the header deadline, not at deadline + io_timeout.
  EXPECT_LT(Clock::now() - start, 1500ms);
  EXPECT_EQ(listener.slowloris(), 1u);
  EXPECT_EQ(listener.reaped(), 0u);
}

// An idle keep-alive connection is reaped after io_timeout and counted;
// the client's next request transparently reconnects.
TEST(HttpListenerHardening, IdleKeepAliveConnectionIsReaped) {
  ListenerConfig config;
  config.keep_alive = true;
  config.io_timeout = 100ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient client("127.0.0.1", listener.port());
  ASSERT_EQ(client.get("/a").status, 200);
  EXPECT_TRUE(eventually([&] { return listener.reaped() == 1; }));
  ASSERT_EQ(client.get("/b").status, 200);
  EXPECT_EQ(client.connects(), 2u);
}

// stop() must not wait out io_timeout (2 s here) on a handler blocked
// in recv on a client that keeps its connection open and sends nothing.
TEST(HttpListenerHardening, StopIsPromptWithAnIdleKeepAlivePeer) {
  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient client("127.0.0.1", listener.port());
  ASSERT_EQ(client.get("/a").status, 200);
  // Give the handler time to go back into recv on the idle connection.
  std::this_thread::sleep_for(20ms);
  const Clock::time_point start = Clock::now();
  listener.stop();
  const auto took = Clock::now() - start;
  EXPECT_LT(took, 50ms)
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms";
  EXPECT_EQ(listener.reaped(), 0u);
}

TEST(HttpListenerHardening, MaxRequestsPerConnectionCapsReuse) {
  ListenerConfig config;
  config.keep_alive = true;
  config.max_requests_per_connection = 2;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient client("127.0.0.1", listener.port());
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(client.get("/r").status, 200) << "request " << i;
  }
  // Six requests at two per connection: three connections, and each
  // cap-closed connection counts as a policy reap.
  EXPECT_EQ(client.connects(), 3u);
  EXPECT_EQ(listener.requests(), 6u);
  EXPECT_GE(listener.reaped(), 2u);
}

TEST(HttpListenerHardening, LifetimeCapReapsBetweenRequests) {
  ListenerConfig config;
  config.keep_alive = true;
  // Generous cap: under a sanitizer, serving /a alone can cost tens of
  // milliseconds, and a connection that expires *before* /a's response
  // would throw the connect/reap counts off by one.
  config.max_connection_lifetime = 400ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient client("127.0.0.1", listener.port());
  ASSERT_EQ(client.get("/a").status, 200);
  std::this_thread::sleep_for(500ms);
  // /b arrives past the lifetime cap: it is still answered, but with
  // Connection: close (counted as a reap); /c then reconnects.
  ASSERT_EQ(client.get("/b").status, 200);
  EXPECT_EQ(listener.reaped(), 1u);
  ASSERT_EQ(client.get("/c").status, 200);
  EXPECT_EQ(client.connects(), 2u);
}

// A response's Content-Type is a view, so it may only be made from a
// string literal: the listener serializes it after the handler returns,
// when a handler's own string would already be gone.  Anything else
// must not compile.
static_assert(std::is_constructible_v<ContentType, const char (&)[10]>);
static_assert(!std::is_constructible_v<ContentType, std::string>);
static_assert(!std::is_constructible_v<ContentType, std::string_view>);
static_assert(!std::is_constructible_v<ContentType, const char*>);

TEST(HttpListenerHardening, ContentTypeIsSerializedVerbatim) {
  HttpResponse response;
  std::string wire;
  serialize_response(response, wire);
  EXPECT_NE(wire.find("\r\nContent-Type: text/plain; charset=utf-8\r\n"),
            std::string::npos)
      << wire;
  response.content_type = "application/x-bpwire";
  wire.clear();
  serialize_response(response, wire);
  EXPECT_NE(wire.find("\r\nContent-Type: application/x-bpwire\r\n"),
            std::string::npos)
      << wire;
}

// Two Content-Length headers are the request-smuggling shape: "5" then
// "50" must not be framed as a 5-byte body.  The head is refused, so the
// listener answers 400 and closes instead of serving either reading.
TEST(HttpListenerHardening, DuplicateContentLengthIsA400AndClose) {
  const std::string_view head =
      "POST /score HTTP/1.1\r\nContent-Length: 5\r\n"
      "Content-Length: 50\r\n";
  HttpRequest request;
  EXPECT_FALSE(parse_request_head(head, &request));

  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string wire =
      std::string(head) + "\r\nhelloGET /next HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // Read to EOF: the connection closes after the one 400.
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(n, 0) << "connection was not closed";
  EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u) << response;
  EXPECT_EQ(response.find("HTTP/1.1", 1), std::string::npos) << response;
}

}  // namespace
}  // namespace bp::net
