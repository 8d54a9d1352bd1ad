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
// the first header line (past the request/status line).  Empty view
// when absent.  When `repeated` is given, the whole head is scanned and
// *repeated says whether `name` appears more than once.
std::string_view find_header(std::string_view head, std::string_view name,
                             bool* repeated = nullptr) {
  std::string_view value;
  bool found = false;
  if (repeated != nullptr) *repeated = false;
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        util::iequals(trim(line.substr(0, colon)), name)) {
      if (found) {
        *repeated = true;
        return value;
      }
      value = trim(line.substr(colon + 1));
      found = true;
      if (repeated == nullptr) return value;
    }
    pos = eol + 2;
  }
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
  // A second Content-Length is the request-smuggling shape: a proxy and
  // this parser could frame the body differently, so refuse it.
  bool repeated = false;
  const std::string_view length =
      find_header(headers, "Content-Length", &repeated);
  if (repeated) return false;
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

std::uint64_t query_uint(std::string_view query, std::string_view key,
                         std::uint64_t fallback) noexcept {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      const std::string_view value = pair.substr(eq + 1);
      if (value.empty()) return fallback;
      std::uint64_t parsed = 0;
      for (char c : value) {
        if (c < '0' || c > '9') return fallback;
        parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
      }
      return parsed;
    }
    pos = amp + 1;
  }
  return fallback;
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
    {
      std::lock_guard lock(queue_mutex_);
      if (pending_.size() >= config_.max_pending) {
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
  const Clock::time_point opened = Clock::now();
  // Renders one response into `reply` and sends it.
  const auto send_response = [&](const HttpResponse& response) {
    reply.clear();
    serialize_response(response, reply);
    return sockops::send_all(fd, reply);
  };
  std::size_t served = 0;
  const auto lifetime_expired = [&] {
    return config_.max_connection_lifetime.count() > 0 &&
           Clock::now() - opened >= config_.max_connection_lifetime;
  };
  while (true) {
    // Reap a keep-alive connection that outlived its cap between
    // requests (a pipelined request already buffered is dropped with
    // the connection; clients treat the close as a retryable EOF).
    if (served > 0 && lifetime_expired()) {
      reaped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    // ---- assemble one full head (pipelined data may already be here) ----
    //
    // The header deadline starts at the first byte of this request —
    // waiting for a request to *begin* is idle keep-alive time, bounded
    // by io_timeout, not slow-loris time.  While mid-head, the kernel
    // recv timeout is clamped to the remaining window so a byte-per-
    // second peer is cut off at the deadline, not at deadline+io_timeout.
    std::size_t head_end = buffer.find("\r\n\r\n");
    bool recv_timeout_clamped = false;
    Clock::time_point head_deadline{};
    bool head_started = !buffer.empty();
    if (head_started && config_.header_timeout.count() > 0) {
      head_deadline = Clock::now() + config_.header_timeout;
    }
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
      if (head_started && config_.header_timeout.count() > 0) {
        const auto remaining = head_deadline - Clock::now();
        if (remaining <= Clock::duration::zero()) {
          slowloris_.fetch_add(1, std::memory_order_relaxed);
          HttpResponse timed_out;
          timed_out.status = 408;
          timed_out.body = "request head timeout\n";
          requests_.fetch_add(1, std::memory_order_relaxed);
          send_response(timed_out);
          return;
        }
        sockops::set_recv_timeout(
            fd, std::min(config_.io_timeout,
                         std::chrono::ceil<std::chrono::milliseconds>(
                             remaining)));
        recv_timeout_clamped = true;
      }
      const ssize_t n = sockops::recv_some(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;  // signal: retry the recv
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          // Timeout on an idle keep-alive connection is the reaper's
          // idle path.
          if (buffer.empty() && served > 0) {
            reaped_.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          // Timeout *mid-head*: loop so the header deadline at the
          // top decides — a clamped recv timing out IS the slow-loris
          // cutoff firing (the deadline check answers 408).
          if (head_started && config_.header_timeout.count() > 0) continue;
        }
        // EOF/error between requests is just the peer leaving;
        // nothing to answer.
        return;
      }
      if (!head_started) {
        head_started = true;
        if (config_.header_timeout.count() > 0) {
          head_deadline = Clock::now() + config_.header_timeout;
        }
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      head_end = buffer.find("\r\n\r\n");
    }
    if (recv_timeout_clamped) {
      sockops::set_recv_timeout(fd, config_.io_timeout);
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

    // ---- assemble the body ----
    const std::size_t frame_end = head_end + 4 + request.content_length;
    while (buffer.size() < frame_end) {
      const ssize_t n = sockops::recv_some(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // truncated request: nothing to answer
      buffer.append(chunk, static_cast<std::size_t>(n));
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
    ++served;
    const bool request_capped =
        config_.max_requests_per_connection > 0 &&
        served >= config_.max_requests_per_connection;
    const bool client_keep_alive = config_.keep_alive && request.keep_alive &&
                                   response.status < 400 &&
                                   !stopping_.load(std::memory_order_acquire);
    response.keep_alive =
        client_keep_alive && !request_capped && !lifetime_expired();
    requests_.fetch_add(1, std::memory_order_relaxed);
    // A close forced by a reaper cap (not by the client, an error, or
    // shutdown) is a reap: the client is told via Connection: close and
    // reconnects at its leisure.  Counted *before* the response goes
    // out so an observer that has read the response also sees the reap.
    if (client_keep_alive && !response.keep_alive) {
      reaped_.fetch_add(1, std::memory_order_relaxed);
    }
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
  {
    std::lock_guard<std::mutex> lock(fd_mutex_);
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  rx_.clear();
}

void HttpClient::abort_connection() {
  // shutdown() under the same lock that guards close(): an abort can
  // never land on a descriptor number the owner already released (and
  // the kernel may have reassigned).
  std::lock_guard<std::mutex> lock(fd_mutex_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool HttpClient::connect() {
  if (fd_ >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockops::set_io_timeout(fd, timeout_);
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
  {
    std::lock_guard<std::mutex> lock(fd_mutex_);
    fd_ = fd;
  }
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

bool HttpClient::send_request(std::string_view method,
                              const std::string& target,
                              std::string_view body,
                              const std::string& content_type) {
  if (!connect()) return false;
  std::string request;
  request.reserve(128 + target.size() + body.size());
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request.append("Host: ").append(host_).append("\r\n");
  if (!body.empty() || method == "POST") {
    request.append("Content-Type: ").append(content_type).append("\r\n");
    request.append("Content-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(body);
  return send_all(request);
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

  std::size_t content_length = 0;
  if (!length_text.empty() && !parse_size(length_text, &content_length)) {
    result.status = -1;
    result.error = "malformed Content-Length";
    close();
    return result;
  }

  if (!length_text.empty()) {
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
  } else {
    // No Content-Length: the body runs to EOF (HTTP/1.0 style).
    ssize_t n;
    while ((n = sockops::recv_some(fd_, chunk, sizeof(chunk))) > 0 ||
           (n < 0 && errno == EINTR)) {
      if (n > 0) rx_.append(chunk, static_cast<std::size_t>(n));
    }
    result.body = rx_.substr(head_end + 4);
    close();
    return result;
  }
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
  std::string request;
  request.reserve(160 + target.size() + body.size());
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request.append("Host: ").append(host_).append("\r\n");
  if (!body.empty() || method == "POST") {
    request.append("Content-Type: ").append(content_type).append("\r\n");
    request.append("Content-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  if (close_connection) request.append("Connection: close\r\n");
  request.append("\r\n").append(body);

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
