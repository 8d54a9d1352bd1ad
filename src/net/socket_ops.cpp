#include "net/socket_ops.h"

#include <netinet/in.h>
#include <netinet/tcp.h>

#include <cerrno>
#include <thread>

#include "util/fault.h"

namespace bp::net::sockops {

ssize_t recv_some(int fd, void* buf, std::size_t len) {
  if (FAULT_POINT(kFaultRecvStall)) {
    std::this_thread::sleep_for(kInjectedStall);
  }
  if (FAULT_POINT(kFaultRecvReset)) {
    errno = ECONNRESET;
    return -1;
  }
  if (FAULT_POINT(kFaultRecvEintr)) {
    errno = EINTR;
    return -1;
  }
  if (len > 1 && FAULT_POINT(kFaultRecvShort)) len = 1;
  return ::recv(fd, buf, len, 0);
}

ssize_t send_some(int fd, const void* buf, std::size_t len) {
  if (FAULT_POINT(kFaultSendStall)) {
    std::this_thread::sleep_for(kInjectedStall);
  }
  if (FAULT_POINT(kFaultSendReset)) {
    errno = ECONNRESET;
    return -1;
  }
  if (FAULT_POINT(kFaultSendEintr)) {
    errno = EINTR;
    return -1;
  }
  if (len > 1 && FAULT_POINT(kFaultSendPartial)) len = 1;
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

int connect_fd(int fd, const sockaddr* addr, socklen_t len) {
  if (FAULT_POINT(kFaultConnect)) {
    errno = ECONNREFUSED;
    return -1;
  }
  return ::connect(fd, addr, len);
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send_some(fd, data.data() + sent, data.size() - sent);
    if (n < 0 && errno == EINTR) continue;  // a signal is not an error
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void set_recv_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void set_send_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void set_io_timeout(int fd, std::chrono::milliseconds timeout) {
  set_recv_timeout(fd, timeout);
  set_send_timeout(fd, timeout);
}

void set_nodelay(int fd) {
  const int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
}

}  // namespace bp::net::sockops
