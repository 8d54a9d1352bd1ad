// Shared HTTP/1.1 plumbing for every plane that speaks HTTP in this
// process: the GET-only introspection server (src/obs/introspect) and
// the POST /score ingress (src/net/score_server).
//
// Promoted out of obs/introspect so the two servers do not duplicate
// request parsing, response framing, or the accept/handler-pool loop.
// This is deliberately not a web framework: two verbs, bounded inputs
// (head size, body size, connection queue, per-connection I/O
// timeouts), zero dependencies beyond POSIX sockets.  Parsing accepts
// what curl, Prometheus, the bundled clients and the load generator
// send, and rejects the rest with a plain status code.
//
// Three pieces:
//
//   * vocabulary — HttpRequest/HttpResponse, parse_request_head
//     (header-aware: Content-Length, Connection, and Transfer-Encoding,
//     which it refuses), serialize_response (keep-alive aware),
//     status_reason, query_uint_checked;
//   * HttpListener — the socket/accept/read-request loop both servers
//     share: one acceptor thread, a handler pool draining a queue of at
//     most kMaxPendingConnections accepted connections, shed-at-accept
//     when that queue is full, optional keep-alive with pipelining (a
//     request already buffered behind the current one is served
//     without another recv), a per-request deadline from first byte
//     to last (the slow-loris cutoff) and an idle keep-alive reaper
//     (DESIGN.md §15);
//   * HttpClient — the blocking test/bench client, with keep-alive
//     connection reuse and POST.  The split send_request/read_response
//     halves let the open-loop load generator pipeline requests from a
//     sender thread while a reader thread drains responses in order;
//     both halves and the one-shot exchange send the same request text.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace bp::net {

struct HttpRequest {
  std::string method;  // "GET", "POST"
  std::string target;  // raw request target, e.g. "/auditz?n=50"
  std::string path;    // target before '?', e.g. "/auditz"
  std::string query;   // target after '?', e.g. "n=50" (no '?')
  // Body bytes (POST).  When the listener builds the request this is a
  // view into the connection's receive buffer — valid only for the
  // duration of the handler call.
  std::string_view body;
  std::size_t content_length = 0;
  // What the client asked for (Connection header, or the HTTP-version
  // default: 1.1 keeps alive, 1.0 closes).  The listener combines this
  // with its own policy to decide whether the connection stays open.
  bool keep_alive = true;
};

// A Content-Type value made only from a string literal: the
// constructor runs at compile time, so the view it holds never dangles
// and setting one never allocates.  Implicit, so a handler writes
// `response.content_type = "application/json";`.
class ContentType {
 public:
  template <std::size_t N>
  consteval ContentType(const char (&literal)[N])
      : value_(literal, N - 1) {}
  constexpr std::string_view view() const noexcept { return value_; }

 private:
  std::string_view value_;
};

inline constexpr ContentType kPlainTextContentType =
    "text/plain; charset=utf-8";

struct HttpResponse {
  int status = 200;
  ContentType content_type = kPlainTextContentType;
  std::string body;
  // Set by the listener before serialization; handlers need not touch
  // it.  Default false so hand-serialized responses close, matching
  // the introspection plane's original one-request-per-connection
  // contract.
  bool keep_alive = false;
};

std::string_view status_reason(int status) noexcept;

// Parse the head of an HTTP/1.1 request ("GET /path HTTP/1.1\r\n" +
// header lines).  Returns false on a malformed request line, a
// non-numeric Content-Length, more than one Content-Length, or any
// Transfer-Encoding (bodies are framed by Content-Length alone).
// Recognized headers: Content-Length, Transfer-Encoding and Connection
// (case-insensitive); everything else is ignored.
bool parse_request_head(std::string_view head, HttpRequest* out);

// Append status line + minimal headers + body to `out`.  The
// Connection header follows `response.keep_alive`.  Appending lets a
// connection reuse one buffer for every response it sends.
void serialize_response(const HttpResponse& response, std::string& out);

// Value of `key` in a query string ("n=50&x=1") as a non-negative
// integer, telling apart the three cases an endpoint that must 400 on
// malformed input needs: key absent (kAbsent, *out untouched), present
// and a valid non-negative integer (kOk, *out set), present but
// empty/non-numeric/overflowing (kMalformed).
enum class QueryParam : std::uint8_t { kAbsent, kOk, kMalformed };
QueryParam query_uint_checked(std::string_view query, std::string_view key,
                              std::uint64_t* out) noexcept;

// ---------------------------------------------------------------- listener

// A request head (request line plus headers) longer than this is
// answered 431.
inline constexpr std::size_t kMaxHeadBytes = 8192;

// Accepted connections waiting for a free handler thread.  One more is
// shed at accept: closed at once and counted in overloaded().
inline constexpr std::size_t kMaxPendingConnections = 64;

struct ListenerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the choice via port()
  std::size_t handler_threads = 2;
  std::chrono::milliseconds io_timeout{2000};  // per-connection recv/send
  // Slow-loris cutoff, distinct from io_timeout: once the first byte
  // of a request arrives, the whole request — head and body — must
  // arrive within this window or the connection is answered 408 and
  // closed (counted in slowloris()).  io_timeout alone cannot bound
  // this — a peer trickling one byte per io_timeout holds a handler
  // for as many io_timeouts as the request has bytes.  The wait for a
  // request to *begin* (an idle keep-alive connection) is governed by
  // io_timeout, not this.  0 disables the cutoff.
  std::chrono::milliseconds header_timeout{1000};
  std::size_t max_body_bytes = 1 << 20;
  // Serve multiple requests per connection (HTTP keep-alive, honoring
  // the client's Connection header), including requests the client
  // pipelined.  Off = one request per connection, the introspection
  // plane's historical contract.  Regardless of this flag, an error
  // response (status >= 400) always closes the connection: after a
  // framing error nothing downstream in the buffer can be trusted.
  bool keep_alive = false;
};

// The shared accept/read/dispatch loop.  The handler runs on the pool
// threads; it must be thread-safe.  It is invoked for every
// well-framed request regardless of verb — verb policy (the
// introspection plane's 405 for non-GET, the ingress's 405 for
// non-POST) belongs to the handler.  It fills the connection's one
// response, which the listener resets to a default 200 before each
// call; the body keeps its capacity across the connection's requests,
// so a handler that writes into it allocates nothing in steady state.
class HttpListener {
 public:
  using Handler = std::function<void(const HttpRequest&, HttpResponse&)>;

  // Binds and starts serving immediately.  On bind/listen failure the
  // listener constructs non-running with error() set.
  HttpListener(ListenerConfig config, Handler handler);
  ~HttpListener();

  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  std::uint16_t port() const noexcept { return port_; }
  const std::string& bind_address() const noexcept {
    return config_.bind_address;
  }
  std::string error() const;

  // Requests answered (including 400s for malformed frames).
  std::uint64_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  // Connections dropped because the pending queue was full.
  std::uint64_t overloaded() const noexcept {
    return overloaded_.load(std::memory_order_relaxed);
  }
  // Idle keep-alive connections closed by policy: no next request
  // began within io_timeout.
  std::uint64_t reaped() const noexcept {
    return reaped_.load(std::memory_order_relaxed);
  }
  // Connections cut off by the request deadline (408).
  std::uint64_t slowloris() const noexcept {
    return slowloris_.load(std::memory_order_relaxed);
  }

  // Two-phase stop, so an owner can drain downstream work between the
  // phases (the score server stops intake, drains its shards — which
  // unblocks handler threads waiting on scoring responses — and only
  // then joins the pool):
  //   begin_stop()  stop accepting; in-flight connections finish their
  //                 current request and close instead of keeping alive,
  //                 and a connection idle between requests is shut for
  //                 reading, so its handler leaves recv at once;
  //   stop()        begin_stop + join all threads + close what was
  //                 accepted but never picked up.
  // Both are idempotent; the destructor calls stop().
  void begin_stop();
  void stop();

 private:
  void acceptor_loop();
  void handler_loop(std::size_t lane);
  void serve_connection(int fd);

  ListenerConfig config_;
  Handler handler_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> reaped_{0};
  std::atomic<std::uint64_t> slowloris_{0};

  mutable std::mutex error_mutex_;
  std::string error_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a handler
  // The connection each handler lane is serving, -1 when none.  Set and
  // cleared (before close) under queue_mutex_, which begin_stop() holds
  // while it shuts them down, so it never reaches a reused fd.
  std::vector<int> serving_fds_;

  std::mutex stop_mutex_;  // serializes stop() callers
  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

// ----------------------------------------------------------------- client

struct HttpResult {
  int status = -1;  // -1 = transport error, see `error`
  std::string body;
  std::string error;
};

// Blocking HTTP/1.1 client against literal IPv4 hosts, with keep-alive
// connection reuse: the connection opened by the first request is
// reused until the server closes it (Connection: close in a response,
// or EOF), after which the next request transparently reconnects.
//
// Thread model: get()/post() are single-threaded calls.  For pipelined
// use, exactly one thread may call send_request() while exactly one
// other thread calls read_response() — sends and receives touch
// disjoint state on one socket.  connect() must happen-before either.
// Nothing interrupts a blocked exchange from another thread: a caller
// racing several connections (the hedging client) polls their fd()s
// and reads only a readable one.
class HttpClient {
 public:
  HttpClient(std::string host, std::uint16_t port,
             std::chrono::milliseconds timeout = std::chrono::milliseconds(2000));
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Explicit connect (optional: get/post connect lazily).  Returns
  // false with error() set on failure.
  bool connect();
  bool connected() const noexcept { return fd_ >= 0; }
  void close();
  // The live connection's descriptor (-1 when none), for poll().
  int fd() const noexcept { return fd_; }
  std::string error() const { return error_; }

  // One request-response exchange, reusing the live connection when
  // there is one.  `close_connection` sends Connection: close and
  // drops the socket afterwards: a one-shot exchange is
  // HttpClient(host, port).get(target, true).
  HttpResult get(const std::string& target, bool close_connection = false);
  HttpResult post(const std::string& target, std::string_view body,
                  const std::string& content_type = "application/x-bpwire",
                  bool close_connection = false);

  // Pipelined halves.  send_request writes one full request and
  // returns without waiting; read_response blocks for the next
  // response in order, and refuses one without Content-Length as a
  // transport error (status -1) rather than read its body to EOF.  No
  // transparent reconnect in this mode — a transport error surfaces to
  // the caller, because resending on a fresh connection would reorder
  // the pipeline.
  bool send_request(std::string_view method, const std::string& target,
                    std::string_view body, const std::string& content_type);
  HttpResult read_response();

  // Times the connection was (re-)established — a keep-alive test
  // asserting reuse expects this to stay at 1.
  std::uint64_t connects() const noexcept { return connects_; }

 private:
  HttpResult exchange(std::string_view method, const std::string& target,
                      std::string_view body, const std::string& content_type,
                      bool close_connection);
  bool send_all(std::string_view data);

  std::string host_;
  std::uint16_t port_;
  std::chrono::milliseconds timeout_;
  int fd_ = -1;
  std::string rx_;  // bytes received beyond the last parsed response
  std::string error_;
  std::uint64_t connects_ = 0;
};

}  // namespace bp::net
