#include "net/chaos_proxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/socket_ops.h"
#include "util/rng.h"

namespace bp::net {

namespace {

// The proxy's own plumbing stays off the fault-injected seam
// (net/socket_ops.h): the proxy *is* the fault injector, and faults in
// its forwarding would be indistinguishable from the ones it injects
// on purpose.
bool raw_send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ChaosProxy::ChaosProxy(ChaosProxyConfig config) : config_(std::move(config)) {
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

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

ChaosProxy::~ChaosProxy() { stop(); }

std::string ChaosProxy::error() const {
  std::lock_guard lock(error_mutex_);
  return error_;
}

ChaosProxyStats ChaosProxy::stats() const {
  ChaosProxyStats out;
  out.connections = connections_.load(std::memory_order_relaxed);
  out.chunks = chunks_.load(std::memory_order_relaxed);
  out.bytes = bytes_.load(std::memory_order_relaxed);
  out.delays = delays_.load(std::memory_order_relaxed);
  out.truncates = truncates_.load(std::memory_order_relaxed);
  out.corrupts = corrupts_.load(std::memory_order_relaxed);
  out.resets = resets_.load(std::memory_order_relaxed);
  return out;
}

ChaosAction ChaosProxy::decide(std::uint64_t stream,
                               std::uint64_t chunk) const noexcept {
  const std::uint64_t h = util::mix64(
      config_.seed ^ util::mix64(stream * 0x9E3779B97F4A7C15ULL + chunk + 1));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  double threshold = config_.reset_probability;
  if (u < threshold) return ChaosAction::kReset;
  threshold += config_.truncate_probability;
  if (u < threshold) return ChaosAction::kTruncate;
  threshold += config_.corrupt_probability;
  if (u < threshold) return ChaosAction::kCorrupt;
  threshold += config_.delay_probability;
  if (u < threshold) return ChaosAction::kDelay;
  return ChaosAction::kForward;
}

int ChaosProxy::connect_upstream() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.upstream_port);
  if (::inet_pton(AF_INET, config_.upstream_host.c_str(), &addr.sin_addr) !=
          1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void ChaosProxy::acceptor_loop() {
  std::uint64_t next_index = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    const int upstream = connect_upstream();
    if (upstream < 0) {
      // No upstream: the client sees an immediate close — to it, a
      // transport error like any other.
      ::close(client);
      continue;
    }
    sockops::set_recv_timeout(client, config_.io_timeout);
    sockops::set_recv_timeout(upstream, config_.io_timeout);

    auto pair = std::make_shared<Pair>();
    pair->client_fd = client;
    pair->upstream_fd = upstream;
    pair->index = next_index++;
    connections_.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard lock(relay_mutex_);
    pairs_.push_back(pair);
    relays_.emplace_back([this, pair] { relay(pair); });
  }
}

void ChaosProxy::relay(std::shared_ptr<Pair> pair) {
  std::thread request_pump([this, pair] {
    pump(*pair, pair->client_fd, pair->upstream_fd, pair->index * 2,
         config_.fault_client_to_upstream);
  });
  pump(*pair, pair->upstream_fd, pair->client_fd, pair->index * 2 + 1,
       /*fault_side=*/true);
  request_pump.join();
  // Both pumps have exited; only now is it safe to release the
  // descriptors (a pair flagged for reset closes with SO_LINGER zero
  // already set, so these sends RST).
  ::close(pair->client_fd);
  ::close(pair->upstream_fd);
  std::lock_guard lock(relay_mutex_);
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    if (pairs_[i] == pair) {
      pairs_.erase(pairs_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void ChaosProxy::kill_pair(Pair& pair, bool rst) {
  if (pair.killed.exchange(true, std::memory_order_acq_rel)) return;
  if (rst) {
    // SO_LINGER zero makes the eventual close() abort with RST.
    // shutdown(SHUT_RD) unblocks both pumps without putting a FIN on
    // the wire first (which would soften the reset into a close).
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(pair.client_fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::setsockopt(pair.upstream_fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::shutdown(pair.client_fd, SHUT_RD);
    ::shutdown(pair.upstream_fd, SHUT_RD);
  } else {
    ::shutdown(pair.client_fd, SHUT_RDWR);
    ::shutdown(pair.upstream_fd, SHUT_RDWR);
  }
}

void ChaosProxy::pump(Pair& pair, int from_fd, int to_fd, std::uint64_t stream,
                      bool fault_side) {
  char buf[4096];
  std::uint64_t chunk = 0;
  while (true) {
    const ssize_t n = ::recv(from_fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (pair.killed.load(std::memory_order_acquire)) return;
    if (n <= 0) break;  // EOF, error, or idle timeout: direction done
    chunks_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<std::uint64_t>(n),
                     std::memory_order_relaxed);

    const ChaosAction action =
        fault_side ? decide(stream, chunk) : ChaosAction::kForward;
    ++chunk;
    std::size_t send_len = static_cast<std::size_t>(n);
    switch (action) {
      case ChaosAction::kReset:
        resets_.fetch_add(1, std::memory_order_relaxed);
        kill_pair(pair, /*rst=*/true);
        return;
      case ChaosAction::kTruncate:
        truncates_.fetch_add(1, std::memory_order_relaxed);
        send_len /= 2;
        if (send_len > 0) raw_send_all(to_fd, buf, send_len);
        kill_pair(pair, /*rst=*/false);
        return;
      case ChaosAction::kCorrupt: {
        corrupts_.fetch_add(1, std::memory_order_relaxed);
        // Flip the top bit of one deterministic byte.  Everything this
        // proxy carries (HTTP heads, bp1 wire frames) is ASCII, so the
        // corruption is always *detectable* — a flipped byte can never
        // alias a different valid frame, it lands outside the grammar.
        const std::uint64_t h =
            util::mix64(util::mix64(config_.seed ^ stream) + chunk);
        buf[h % send_len] ^= static_cast<char>(0x80);
        break;
      }
      case ChaosAction::kDelay:
        delays_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(config_.delay);
        if (pair.killed.load(std::memory_order_acquire)) return;
        break;
      case ChaosAction::kForward:
        break;
    }
    if (!raw_send_all(to_fd, buf, send_len)) break;
  }
  if (pair.killed.load(std::memory_order_acquire)) return;
  // Half-close: propagate this direction's EOF so the peer can finish
  // what it was saying on the other direction.
  ::shutdown(to_fd, SHUT_WR);
  ::shutdown(from_fd, SHUT_RD);
}

void ChaosProxy::stop() {
  std::lock_guard stop_lock(stop_mutex_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();

  std::vector<std::thread> relays;
  {
    std::lock_guard lock(relay_mutex_);
    for (const std::shared_ptr<Pair>& pair : pairs_) {
      kill_pair(*pair, /*rst=*/false);
    }
    relays.swap(relays_);
  }
  for (std::thread& t : relays) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace bp::net
