// The socket seam every byte of the network plane moves through.
//
// bp_http used to call ::recv/::send/::connect directly, which meant
// the network layer's failure paths — short reads, partial writes,
// ECONNRESET mid-frame, EINTR, a peer that stalls mid-header — only
// ran when a real kernel produced them, i.e. never in CI.  These
// wrappers route every socket operation through the deterministic
// fault registry (util/fault.h, DESIGN.md §10): each operation
// evaluates a named FAULT_POINT, and an armed point's decisions are a
// pure function of (seed, evaluation index), so a chaos run that
// tripped a bug replays byte-for-byte under a debugger.
//
// Injection semantics keep the byte stream *correct* unless the fault
// is meant to kill it:
//
//   net.sock.recv.stall    sleep kInjectedStall, then recv normally —
//                          a peer (or kernel) that went quiet;
//   net.sock.recv.short    deliver at most 1 byte — fragmentation at
//                          its nastiest; data is never dropped;
//   net.sock.recv.eintr    return -1/EINTR without touching the
//                          socket — the caller must retry;
//   net.sock.recv.reset    return -1/ECONNRESET — the connection is
//                          dead as far as the caller can tell;
//   net.sock.send.stall / .partial / .eintr / .reset — mirror images
//                          on the write side (partial writes at most
//                          1 byte; the caller's loop must finish the
//                          job).
//   net.sock.connect       fail with ECONNREFUSED before the syscall.
//
// Callers retry EINTR at the call site (it is a signal, not an
// error); everything else surfaces through the normal error paths.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <string_view>

namespace bp::net::sockops {

inline constexpr std::string_view kFaultConnect = "net.sock.connect";
inline constexpr std::string_view kFaultRecvStall = "net.sock.recv.stall";
inline constexpr std::string_view kFaultRecvShort = "net.sock.recv.short";
inline constexpr std::string_view kFaultRecvEintr = "net.sock.recv.eintr";
inline constexpr std::string_view kFaultRecvReset = "net.sock.recv.reset";
inline constexpr std::string_view kFaultSendStall = "net.sock.send.stall";
inline constexpr std::string_view kFaultSendPartial = "net.sock.send.partial";
inline constexpr std::string_view kFaultSendEintr = "net.sock.send.eintr";
inline constexpr std::string_view kFaultSendReset = "net.sock.send.reset";

// How long an injected stall holds the operation.  Long enough that a
// header-deadline or hedging threshold can observe it, short enough
// that a soak armed at a few percent still finishes quickly.
inline constexpr std::chrono::milliseconds kInjectedStall{25};

// recv(fd, buf, len, 0) behind the fault points above.
ssize_t recv_some(int fd, void* buf, std::size_t len);

// send(fd, buf, len, MSG_NOSIGNAL) behind the fault points above.
ssize_t send_some(int fd, const void* buf, std::size_t len);

// connect(fd, addr, len) behind net.sock.connect.
int connect_fd(int fd, const sockaddr* addr, socklen_t len);

// Send the whole buffer: loops over partial writes, retries EINTR,
// returns false on any other error (errno preserved).
bool send_all(int fd, std::string_view data);

// Per-direction kernel I/O deadlines.  set_io_timeout sets BOTH
// SO_RCVTIMEO and SO_SNDTIMEO: a peer that stops *reading* must not
// wedge a handler in send() any more than a peer that stops writing
// may wedge it in recv().
void set_recv_timeout(int fd, std::chrono::milliseconds timeout);
void set_send_timeout(int fd, std::chrono::milliseconds timeout);
void set_io_timeout(int fd, std::chrono::milliseconds timeout);

// TCP_NODELAY: every HTTP exchange here is one small request answered
// by one small response, so Nagle's algorithm only ever holds a
// segment back until the peer's delayed ACK (up to ~40 ms on Linux).
void set_nodelay(int fd);

}  // namespace bp::net::sockops
