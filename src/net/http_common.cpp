#include "net/http_common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "net/socket_ops.h"
#include "obs/prof/prof.h"
#include "util/strings.h"

namespace bp::net {

namespace {

// HTTP optional whitespace (SP, HTAB) and a trailing CR only, unlike
// util::trim, which strips every isspace character.
std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// Value of header `name` (case-insensitive) in `head`, which starts at
// the first header line (past the request/status line): the first
// occurrence's, or an empty view when absent.  When `count` is given,
// the whole head is scanned and *count is how often `name` appears.
std::string_view find_header(std::string_view head, std::string_view name,
                             std::size_t* count = nullptr) {
  std::string_view value;
  std::size_t found = 0;
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        util::iequals(trim(line.substr(0, colon)), name)) {
      if (found++ == 0) value = trim(line.substr(colon + 1));
      if (count == nullptr) return value;
    }
    pos = eol + 2;
  }
  if (count != nullptr) *count = found;
  return value;
}

bool parse_size(std::string_view text, std::size_t* out) noexcept {
  if (text.empty()) return false;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (SIZE_MAX - 9) / 10) return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool parse_request_head(std::string_view head, HttpRequest* out) {
  const std::size_t line_end = head.find("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return false;
  out->method = std::string(line.substr(0, sp1));
  out->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (out->method.empty() || out->target.empty() || out->target[0] != '/') {
    return false;
  }
  const std::size_t q = out->target.find('?');
  out->path = out->target.substr(0, q);
  out->query =
      q == std::string::npos ? std::string() : out->target.substr(q + 1);

  out->keep_alive = version == "HTTP/1.1";
  out->content_length = 0;
  if (line_end == std::string_view::npos) return true;
  const std::string_view headers = head.substr(line_end + 2);
  const std::string_view connection = find_header(headers, "Connection");
  if (util::iequals(connection, "close")) out->keep_alive = false;
  if (util::iequals(connection, "keep-alive")) out->keep_alive = true;
  // A second Content-Length, or any Transfer-Encoding, is the
  // request-smuggling shape: a proxy and this parser could frame the
  // body differently (this parser frames by Content-Length alone, so a
  // chunked body would be read as the next request), so refuse it.
  std::size_t lengths = 0;
  std::size_t encodings = 0;
  const std::string_view length =
      find_header(headers, "Content-Length", &lengths);
  find_header(headers, "Transfer-Encoding", &encodings);
  if (lengths > 1 || encodings > 0) return false;
  if (!length.empty() && !parse_size(length, &out->content_length)) {
    return false;
  }
  return true;
}

namespace {

void append_decimal(std::string& out, std::size_t value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out.append(digits, end);
}

}  // namespace

void serialize_response(const HttpResponse& response, std::string& out) {
  out += "HTTP/1.1 ";
  append_decimal(out, static_cast<std::size_t>(response.status));
  out += ' ';
  out += status_reason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type.view();
  out += "\r\nContent-Length: ";
  append_decimal(out, response.body.size());
  out += response.keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                             : "\r\nConnection: close\r\n\r\n";
  out += response.body;
}

QueryParam query_uint_checked(std::string_view query, std::string_view key,
                              std::uint64_t* out) noexcept {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      const std::string_view value = pair.substr(eq + 1);
      if (value.empty()) return QueryParam::kMalformed;
      std::uint64_t parsed = 0;
      for (char c : value) {
        if (c < '0' || c > '9') return QueryParam::kMalformed;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (parsed > (UINT64_MAX - digit) / 10) return QueryParam::kMalformed;
        parsed = parsed * 10 + digit;
      }
      *out = parsed;
      return QueryParam::kOk;
    }
    pos = amp + 1;
  }
  return QueryParam::kAbsent;
}

// ---------------------------------------------------------------- listener

HttpListener::HttpListener(ListenerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    error_ = "inet_pton: invalid bind address '" + config_.bind_address + "'";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::listen(listen_fd_, 128) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }

  // Port 0 binds ephemerally; read the kernel's choice back so tests
  // (and the tier-1 smoke) can address the server.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  running_.store(true, std::memory_order_release);
  const std::size_t n_handlers =
      std::max<std::size_t>(config_.handler_threads, 1);
  handlers_.reserve(n_handlers);
  serving_fds_.assign(n_handlers, -1);
  for (std::size_t i = 0; i < n_handlers; ++i) {
    handlers_.emplace_back([this, i] { handler_loop(i); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

HttpListener::~HttpListener() { stop(); }

std::string HttpListener::error() const {
  std::lock_guard lock(error_mutex_);
  return error_;
}

void HttpListener::acceptor_loop() {
  obs::prof::ThreadHandle prof_handle("net.http_acceptor", 0);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket is gone; stop() is the only cause
    }
    sockops::set_io_timeout(fd, config_.io_timeout);
    sockops::set_nodelay(fd);
    {
      std::lock_guard lock(queue_mutex_);
      if (pending_.size() >= kMaxPendingConnections) {
        // Shed at accept: better to drop a connection than to queue
        // unboundedly — the client retries (a scraper on its next
        // cadence, the load generator counting the loss).
        overloaded_.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        continue;
      }
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpListener::handler_loop(std::size_t lane) {
  obs::prof::ThreadHandle prof_handle("net.http_handler",
                                      static_cast<std::uint32_t>(lane));
  while (true) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
      serving_fds_[lane] = fd;
    }
    serve_connection(fd);
    {
      std::lock_guard lock(queue_mutex_);
      serving_fds_[lane] = -1;
    }
    ::close(fd);
  }
}

void HttpListener::serve_connection(int fd) {
  using Clock = std::chrono::steady_clock;
  std::string buffer;
  HttpResponse response;  // every handler-built response on this connection
  std::string reply;      // every response on this connection, serialized
  char chunk[4096];
  // Renders one response into `reply` and sends it.
  const auto send_response = [&](const HttpResponse& response) {
    reply.clear();
    serialize_response(response, reply);
    return sockops::send_all(fd, reply);
  };
  bool served = false;  // a timeout after a response is idle keep-alive
  while (true) {
    // ---- assemble one full request (pipelined data may already be here) ----
    //
    // The request deadline starts at the first byte of this request and
    // covers its head and its body — waiting for a request to *begin*
    // is idle keep-alive time, bounded by io_timeout, not slow-loris
    // time.  Once the request has started, the kernel recv timeout is
    // clamped to the remaining window, so a peer trickling a byte per
    // second is cut off at the deadline, not at deadline + io_timeout.
    const bool deadline_armed = config_.header_timeout.count() > 0;
    bool started = !buffer.empty();
    bool recv_timeout_clamped = false;
    Clock::time_point deadline{};
    if (started && deadline_armed) {
      deadline = Clock::now() + config_.header_timeout;
    }
    // Appends the request's next bytes to `buffer`, or says why none
    // came: the deadline passed, the keep-alive connection sat idle for
    // io_timeout, or the peer closed (EOF/error).
    enum class Read { kData, kDeadline, kIdle, kClosed };
    const auto read_more = [&]() -> Read {
      while (true) {
        const bool timed = started && deadline_armed;
        if (timed) {
          const auto remaining = deadline - Clock::now();
          if (remaining <= Clock::duration::zero()) return Read::kDeadline;
          sockops::set_recv_timeout(
              fd, std::min(config_.io_timeout,
                           std::chrono::ceil<std::chrono::milliseconds>(
                               remaining)));
          recv_timeout_clamped = true;
        }
        const ssize_t n = sockops::recv_some(fd, chunk, sizeof(chunk));
        if (n > 0) {
          if (!started) {
            started = true;
            if (deadline_armed) {
              deadline = Clock::now() + config_.header_timeout;
            }
          }
          buffer.append(chunk, static_cast<std::size_t>(n));
          return Read::kData;
        }
        if (n < 0 && errno == EINTR) continue;  // signal: retry the recv
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          if (buffer.empty() && served) return Read::kIdle;
          // A clamped recv timing out IS the deadline firing: loop so
          // the check above answers it.
          if (timed) continue;
        }
        return Read::kClosed;
      }
    };
    // Answers a request that missed its deadline: 408, then close.
    const auto time_out = [&] {
      slowloris_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse timed_out;
      timed_out.status = 408;
      timed_out.body = "request timeout\n";
      requests_.fetch_add(1, std::memory_order_relaxed);
      send_response(timed_out);
    };

    std::size_t head_end = buffer.find("\r\n\r\n");
    while (head_end == std::string::npos) {
      if (buffer.size() > kMaxHeadBytes) {
        HttpResponse too_large;
        too_large.status = 431;
        too_large.body = "request head too large\n";
        requests_.fetch_add(1, std::memory_order_relaxed);
        send_response(too_large);
        return;
      }
      // Between requests on an idle keep-alive connection, notice a
      // shutdown instead of blocking a full io_timeout on recv.
      if (buffer.empty() && stopping_.load(std::memory_order_acquire)) return;
      const Read read = read_more();
      if (read == Read::kDeadline) return time_out();
      // An idle keep-alive connection timing out is the reaper's idle
      // path; EOF/error between requests is just the peer leaving.
      if (read == Read::kIdle) reaped_.fetch_add(1, std::memory_order_relaxed);
      if (read != Read::kData) return;
      head_end = buffer.find("\r\n\r\n");
    }

    HttpRequest request;
    if (!parse_request_head(
            std::string_view(buffer).substr(0, head_end + 2), &request)) {
      HttpResponse malformed;
      malformed.status = 400;
      malformed.body = "malformed request\n";
      requests_.fetch_add(1, std::memory_order_relaxed);
      send_response(malformed);
      return;  // framing is lost; nothing downstream can be trusted
    }
    if (request.content_length > config_.max_body_bytes) {
      HttpResponse too_large;
      too_large.status = 413;
      too_large.body = "request body too large\n";
      requests_.fetch_add(1, std::memory_order_relaxed);
      send_response(too_large);
      return;
    }

    // ---- assemble the body, under the same deadline ----
    const std::size_t frame_end = head_end + 4 + request.content_length;
    while (buffer.size() < frame_end) {
      const Read read = read_more();
      if (read == Read::kDeadline) return time_out();
      if (read != Read::kData) return;  // truncated request: nothing to answer
    }
    if (recv_timeout_clamped) {
      sockops::set_recv_timeout(fd, config_.io_timeout);
    }
    request.body =
        std::string_view(buffer).substr(head_end + 4, request.content_length);

    response.status = 200;
    response.content_type = kPlainTextContentType;
    response.body.clear();
    {
      PROF_SCOPE("net.handle");
      handler_(request, response);
    }
    served = true;
    response.keep_alive = config_.keep_alive && request.keep_alive &&
                          response.status < 400 &&
                          !stopping_.load(std::memory_order_acquire);
    requests_.fetch_add(1, std::memory_order_relaxed);
    bool sent;
    {
      PROF_SCOPE("net.serialize");
      sent = send_response(response);
    }
    if (!sent || !response.keep_alive) {
      return;
    }
    buffer.erase(0, frame_end);
  }
}

void HttpListener::begin_stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Unblock accept() by shutting the listening socket down before
  // closing it.  Handlers notice the flag between requests; one already
  // blocked in recv on an idle keep-alive peer gets EOF from the read
  // shutdown instead of waiting out io_timeout.  Bytes already received
  // stay readable and the write side stays open, so a request in hand
  // is still answered.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    std::lock_guard lock(queue_mutex_);
    for (int fd : serving_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
    }
  }
  queue_cv_.notify_all();
}

void HttpListener::stop() {
  begin_stop();
  std::lock_guard lock(stop_mutex_);
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connections accepted but never picked up: close them so clients
  // get a reset instead of a hang.
  std::lock_guard queue_lock(queue_mutex_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
  running_.store(false, std::memory_order_release);
}

// ----------------------------------------------------------------- client

HttpClient::HttpClient(std::string host, std::uint16_t port,
                       std::chrono::milliseconds timeout)
    : host_(std::move(host)), port_(port), timeout_(timeout) {}

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

bool HttpClient::connect() {
  if (fd_ >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockops::set_io_timeout(fd, timeout_);
  sockops::set_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    error_ = "inet_pton: invalid literal IPv4 address '" + host_ + "'";
    ::close(fd);
    return false;
  }
  if (sockops::connect_fd(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    error_ = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  rx_.clear();
  ++connects_;
  return true;
}

bool HttpClient::send_all(std::string_view data) {
  if (!sockops::send_all(fd_, data)) {
    error_ = std::string("send: ") + std::strerror(errno);
    return false;
  }
  return true;
}

namespace {

// The request text both client paths send.  A body, or any POST,
// carries Content-Type and Content-Length; `close_connection` adds
// Connection: close.
std::string render_request(std::string_view method, const std::string& target,
                           const std::string& host, std::string_view body,
                           const std::string& content_type,
                           bool close_connection) {
  std::string request;
  request.reserve(160 + target.size() + body.size());
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request.append("Host: ").append(host).append("\r\n");
  if (!body.empty() || method == "POST") {
    request.append("Content-Type: ").append(content_type).append("\r\n");
    request.append("Content-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  if (close_connection) request.append("Connection: close\r\n");
  request.append("\r\n").append(body);
  return request;
}

}  // namespace

bool HttpClient::send_request(std::string_view method,
                              const std::string& target,
                              std::string_view body,
                              const std::string& content_type) {
  if (!connect()) return false;
  return send_all(render_request(method, target, host_, body, content_type,
                                 /*close_connection=*/false));
}

HttpResult HttpClient::read_response() {
  HttpResult result;
  if (fd_ < 0) {
    result.error = "not connected";
    return result;
  }
  char chunk[4096];
  std::size_t head_end;
  while ((head_end = rx_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = sockops::recv_some(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.error = n == 0 ? "connection closed before response"
                            : std::string("recv: ") + std::strerror(errno);
      close();
      return result;
    }
    rx_.append(chunk, static_cast<std::size_t>(n));
  }

  // "HTTP/1.1 <code> ..." status line.
  const std::string_view head = std::string_view(rx_).substr(0, head_end);
  if (rx_.compare(0, 5, "HTTP/") != 0) {
    result.error = "malformed response";
    close();
    return result;
  }
  const std::size_t sp = head.find(' ');
  if (sp == std::string_view::npos || sp + 4 > head.size()) {
    result.error = "malformed status line";
    close();
    return result;
  }
  result.status = 0;
  for (std::size_t i = sp + 1; i < sp + 4; ++i) {
    if (head[i] < '0' || head[i] > '9') {
      result.status = -1;
      result.error = "malformed status code";
      close();
      return result;
    }
    result.status = result.status * 10 + (head[i] - '0');
  }

  const std::size_t line_end = head.find("\r\n");
  const std::string_view headers =
      line_end == std::string_view::npos ? std::string_view()
                                         : head.substr(line_end + 2);
  const std::string_view length_text = find_header(headers, "Content-Length");
  const bool server_closes =
      util::iequals(find_header(headers, "Connection"), "close");

  // Every server here frames its body with Content-Length; without one
  // the body could only end at EOF, and a peer holding the socket open
  // would hold this read for io_timeout.
  std::size_t content_length = 0;
  if (!parse_size(length_text, &content_length)) {
    result.status = -1;
    result.error = length_text.empty() ? "response without Content-Length"
                                       : "malformed Content-Length";
    close();
    return result;
  }
  const std::size_t frame_end = head_end + 4 + content_length;
  while (rx_.size() < frame_end) {
    const ssize_t n = sockops::recv_some(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.status = -1;
      result.error = "connection closed mid-body";
      close();
      return result;
    }
    rx_.append(chunk, static_cast<std::size_t>(n));
  }
  result.body = rx_.substr(head_end + 4, content_length);
  rx_.erase(0, frame_end);  // keep pipelined bytes behind this response
  if (server_closes) close();
  return result;
}

HttpResult HttpClient::exchange(std::string_view method,
                                const std::string& target,
                                std::string_view body,
                                const std::string& content_type,
                                bool close_connection) {
  const bool had_connection = fd_ >= 0;
  if (!connect()) return {-1, "", error_};
  const std::string request = render_request(method, target, host_, body,
                                             content_type, close_connection);

  if (!send_all(request)) {
    // A reused keep-alive connection may have been closed by the
    // server between requests; retry exactly once on a fresh one.
    close();
    if (!had_connection || !connect() || !send_all(request)) {
      return {-1, "", error_};
    }
  }
  HttpResult result = read_response();
  if (result.status < 0 && had_connection) {
    // Same keep-alive race on the read side (EOF instead of a
    // response): one retry on a fresh connection.
    close();
    if (connect() && send_all(request)) result = read_response();
  }
  if (close_connection) close();
  return result;
}

HttpResult HttpClient::get(const std::string& target, bool close_connection) {
  return exchange("GET", target, {}, "", close_connection);
}

HttpResult HttpClient::post(const std::string& target, std::string_view body,
                            const std::string& content_type,
                            bool close_connection) {
  return exchange("POST", target, body, content_type, close_connection);
}

}  // namespace bp::net
