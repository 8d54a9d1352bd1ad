// The network-plane hardening suite: the fault-injectable socket seam
// (net/socket_ops.h) and the listener's slow-loris / keep-alive-reaper
// defenses (DESIGN.md §15).  Everything here runs over real sockets;
// the injected faults are deterministic (util/fault.h), so a failing
// run replays.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

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

// A raw client socket connected to a listener on 127.0.0.1, with a 5 s
// receive timeout so a server that never answers fails the test instead
// of hanging it.  -1 on failure.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

// Everything the peer sends until it closes.  *closed_cleanly says
// whether it closed with EOF rather than an error or the timeout.
std::string read_to_close(int fd, bool* closed_cleanly = nullptr) {
  std::string out;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  if (closed_cleanly != nullptr) *closed_cleanly = n == 0;
  return out;
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

int sock_nodelay(int fd) {
  int on = -1;
  socklen_t len = sizeof(on);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len) != 0) return -1;
  return on;
}

// Local and peer ports of a connected IPv4 TCP socket; false for any
// other descriptor (including a listening socket, which has no peer).
bool tcp_ports(int fd, std::uint16_t* local, std::uint16_t* peer) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return false;
  }
  *local = ntohs(addr.sin_port);
  len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return false;
  }
  *peer = ntohs(addr.sin_port);
  return true;
}

// Both ends of one live loopback connection are in this process: the
// client's socket (peer port = the listener's) and the accepted one
// (local port = the listener's, peer port = the client's local port).
// Each must read TCP_NODELAY back as set.
TEST(SockOps, NodelayIsSetOnAcceptedAndConnectedSockets) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(sock_nodelay(fd), 0);  // the kernel default: Nagle on
  sockops::set_nodelay(fd);
  EXPECT_EQ(sock_nodelay(fd), 1);
  ::close(fd);

  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  HttpClient client("127.0.0.1", listener.port());
  ASSERT_EQ(client.get("/a").status, 200);  // accepted and served

  int client_fd = -1;
  std::uint16_t client_port = 0;
  for (int candidate = 0; candidate < 4096; ++candidate) {
    std::uint16_t local = 0, peer = 0;
    if (tcp_ports(candidate, &local, &peer) && peer == listener.port()) {
      client_fd = candidate;
      client_port = local;
      break;
    }
  }
  ASSERT_GE(client_fd, 0) << "client socket not found";
  int accepted_fd = -1;
  for (int candidate = 0; candidate < 4096; ++candidate) {
    std::uint16_t local = 0, peer = 0;
    if (tcp_ports(candidate, &local, &peer) && local == listener.port() &&
        peer == client_port) {
      accepted_fd = candidate;
      break;
    }
  }
  ASSERT_GE(accepted_fd, 0) << "accepted socket not found";
  EXPECT_EQ(sock_nodelay(client_fd), 1) << "HttpClient::connect";
  EXPECT_EQ(sock_nodelay(accepted_fd), 1) << "HttpListener accept";
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

// A response without Content-Length could only end at EOF, so a peer
// that answers and then holds the socket open would hold the read for
// a whole io_timeout.  The client refuses it as soon as the head is in.
TEST(HttpClient, ResponseWithoutContentLengthIsRefusedPromptly) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread server([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string head;
    char buf[512];
    ssize_t n;
    while (head.find("\r\n\r\n") == std::string::npos &&
           (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      head.append(buf, static_cast<std::size_t>(n));
    }
    sockops::send_all(fd, "HTTP/1.1 200 OK\r\n\r\nhello");
    read_to_close(fd);  // hold the socket open until the client leaves
    ::close(fd);
  });

  HttpClient client("127.0.0.1", ntohs(addr.sin_port), 1000ms);
  const Clock::time_point start = Clock::now();
  const HttpResult result = client.get("/");
  const auto elapsed = Clock::now() - start;
  client.close();
  server.join();
  ::close(listen_fd);
  EXPECT_EQ(result.status, -1);
  EXPECT_NE(result.error.find("Content-Length"), std::string::npos)
      << result.error;
  EXPECT_LT(elapsed, 300ms);  // not the 1000 ms io_timeout
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
  const int fd = connect_raw(listener.port());
  ASSERT_GE(fd, 0);

  const Clock::time_point start = Clock::now();
  const std::string_view partial_head = "GET /slow HTTP/1.1\r\nHos";
  ASSERT_EQ(::send(fd, partial_head.data(), partial_head.size(), 0),
            static_cast<ssize_t>(partial_head.size()));
  const std::string response = read_to_close(fd);
  ::close(fd);

  EXPECT_NE(response.find("408 Request Timeout"), std::string::npos)
      << response;
  // Cut at the header deadline, not at deadline + io_timeout.
  EXPECT_LT(Clock::now() - start, 1500ms);
  EXPECT_EQ(listener.slowloris(), 1u);
  EXPECT_EQ(listener.reaped(), 0u);
}

// The request deadline covers the body too: a complete head followed by
// a body trickled one byte per 250 ms keeps every recv well inside
// io_timeout, yet is cut off 408 at the deadline instead of holding the
// handler for the ~3 s the body takes.
TEST(HttpListenerHardening, SlowBodyIsCutOffAtTheRequestDeadline) {
  ListenerConfig config;
  config.header_timeout = 300ms;
  config.io_timeout = 1000ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  const int fd = connect_raw(listener.port());
  ASSERT_GE(fd, 0);

  const Clock::time_point start = Clock::now();
  const std::string_view head =
      "POST /slow HTTP/1.1\r\nContent-Length: 12\r\n\r\n";
  ASSERT_EQ(::send(fd, head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  std::thread trickle([fd] {
    for (int i = 0; i < 12; ++i) {
      if (::send(fd, "x", 1, MSG_NOSIGNAL) != 1) return;  // cut off
      std::this_thread::sleep_for(250ms);
    }
  });
  const std::string response = read_to_close(fd);
  const auto took = Clock::now() - start;
  trickle.join();
  ::close(fd);

  EXPECT_EQ(response.rfind("HTTP/1.1 408 ", 0), 0u) << response;
  EXPECT_LT(took, 1500ms)
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms";
  EXPECT_EQ(listener.slowloris(), 1u);
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

// More connections than the listener can hold: the one handler is
// pinned by a keep-alive peer, kMaxPendingConnections more wait for it,
// and each one past those is closed at accept and counted, so an excess
// peer sees EOF at once instead of waiting on a queue.
TEST(HttpListenerHardening, ExcessConnectionsAreShedAtAccept) {
  ListenerConfig config;
  config.handler_threads = 1;
  config.keep_alive = true;
  config.io_timeout = 10s;  // the pinned peer is not reaped mid-test
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient pinned("127.0.0.1", listener.port());
  ASSERT_EQ(pinned.get("/pin").status, 200);

  std::vector<int> queued;
  for (std::size_t i = 0; i < kMaxPendingConnections; ++i) {
    queued.push_back(connect_raw(listener.port()));
    ASSERT_GE(queued.back(), 0);
  }
  // The acceptor takes connections in arrival order, so these three
  // find the pending queue full.
  int shed[3];
  for (int& fd : shed) {
    fd = connect_raw(listener.port());
    ASSERT_GE(fd, 0);
  }
  EXPECT_TRUE(eventually([&] { return listener.overloaded() == 3; }))
      << listener.overloaded();
  for (const int fd : shed) {
    const timeval tv{0, 500'000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char byte;
    const Clock::time_point start = Clock::now();
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "shed connection was not closed";
    EXPECT_LT(Clock::now() - start, 500ms);
    ::close(fd);
  }
  EXPECT_EQ(listener.overloaded(), 3u);
  for (const int fd : queued) ::close(fd);
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
  const int fd = connect_raw(listener.port());
  ASSERT_GE(fd, 0);
  const std::string wire =
      std::string(head) + "\r\nhelloGET /next HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // Read to EOF: the connection closes after the one 400.
  bool closed = false;
  const std::string response = read_to_close(fd, &closed);
  ::close(fd);
  EXPECT_TRUE(closed) << "connection was not closed";
  EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u) << response;
  EXPECT_EQ(response.find("HTTP/1.1", 1), std::string::npos) << response;
}

// Bodies are framed by Content-Length alone, so a chunked body would be
// read as the next pipelined request.  Any Transfer-Encoding, with or
// without a Content-Length beside it, is refused: 400, then close, and
// the chunk bytes are never served.
TEST(HttpListenerHardening, TransferEncodingIsRefusedAndClosed) {
  const std::string_view head =
      "POST /score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n";
  HttpRequest request;
  EXPECT_FALSE(parse_request_head(head, &request));
  EXPECT_FALSE(parse_request_head(
      "POST /score HTTP/1.1\r\nContent-Length: 5\r\n"
      "Transfer-Encoding: chunked\r\n",
      &request));

  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  const int fd = connect_raw(listener.port());
  ASSERT_GE(fd, 0);
  const std::string wire =
      std::string(head) + "\r\n5\r\nhello\r\n0\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  bool closed = false;
  const std::string response = read_to_close(fd, &closed);
  ::close(fd);
  EXPECT_TRUE(closed) << "connection was not closed";
  EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u) << response;
  EXPECT_EQ(response.find("HTTP/1.1", 1), std::string::npos) << response;
}

}  // namespace
}  // namespace bp::net
