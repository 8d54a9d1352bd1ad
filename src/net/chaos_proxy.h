// A deterministic chaos TCP relay: sits between a client and the
// scoring plane, forwards bytes, and injects network-level faults —
// delays, truncations, resets, single-byte corruption — whose
// placement is a pure function of (seed, stream index, chunk index).
//
// The socket-level fault points (net/socket_ops.h) exercise failure
// paths *inside* this process; the proxy exercises them from the
// *wire*: a peer that really does send half a frame and close, really
// does RST mid-response, really does go quiet for 40ms.  The chaos
// tests (tests/net_chaos_test.cpp), the chaos_proxy example and the
// tier-1 chaos smoke run their traffic through one of these.
//
// Determinism: every forwarded chunk consults decide(stream, chunk),
// where stream = connection_index * 2 + direction (0 = client→
// upstream, 1 = upstream→client) and chunk counts chunks on that
// stream.  decide() is exposed publicly so tests can predict exactly
// which chunks a given seed mutilates.  Two runs with the same seed
// and the same traffic shape see the same faults.
//
// Fault semantics per chunk:
//   kDelay     hold the chunk for config.delay, then forward intact —
//              the tail-latency fault hedging exists to beat;
//   kTruncate  forward the first half of the chunk, then close both
//              sides gracefully (FIN) — a peer dying mid-frame;
//   kCorrupt   flip the top bit of one deterministic byte, forward the
//              rest intact — the wire parser must reject, never crash
//              (the protocols this proxy carries are ASCII, so the
//              flip always lands outside the grammar: corruption is
//              detectable by construction, never a silent alias of a
//              different valid frame);
//   kReset     forward nothing, abort both sides with RST (SO_LINGER
//              zero) — the kernel-level ECONNRESET path.
//
// Teardown protocol: a pump that kills a connection only ever calls
// shutdown() on the pair's descriptors (unblocking the other pump);
// the relay thread that owns the pair closes both fds after *both*
// pumps have exited, so no descriptor is ever closed while a thread
// may still be blocked on it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace bp::net {

struct ChaosProxyConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the choice via port()
  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;
  std::uint64_t seed = 0xC4A05;
  // Per-chunk fault probabilities; evaluated in the order reset,
  // truncate, corrupt, delay (their sum should stay well under 1).
  double reset_probability = 0.0;
  double truncate_probability = 0.0;
  double corrupt_probability = 0.0;
  double delay_probability = 0.0;
  std::chrono::milliseconds delay{40};
  // Faults always apply to the upstream-to-client direction; this
  // adds the client-to-upstream one (forwarding is always both ways).
  bool fault_client_to_upstream = true;
  // Kernel recv timeout per relay socket; an idle direction past this
  // is treated as end-of-stream, so the proxy can never wedge.
  std::chrono::milliseconds io_timeout{5'000};
};

enum class ChaosAction : std::uint8_t {
  kForward = 0,
  kDelay,
  kTruncate,
  kCorrupt,
  kReset,
};

struct ChaosProxyStats {
  std::uint64_t connections = 0;
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delays = 0;
  std::uint64_t truncates = 0;
  std::uint64_t corrupts = 0;
  std::uint64_t resets = 0;
};

class ChaosProxy {
 public:
  // Binds and starts relaying immediately; on bind failure the proxy
  // constructs non-running with error() set.
  explicit ChaosProxy(ChaosProxyConfig config);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  std::uint16_t port() const noexcept { return port_; }
  std::string error() const;
  ChaosProxyStats stats() const;

  // The pure fault schedule: what happens to chunk `chunk` of stream
  // `stream` under this proxy's seed and probabilities.  Exposed so a
  // test can predict the faults a run will see.
  ChaosAction decide(std::uint64_t stream, std::uint64_t chunk) const noexcept;

  // Idempotent; the destructor calls it.  Aborts every in-flight
  // relay and joins all threads.
  void stop();

 private:
  struct Pair {
    int client_fd = -1;
    int upstream_fd = -1;
    std::uint64_t index = 0;
    std::atomic<bool> killed{false};
  };

  void acceptor_loop();
  void relay(std::shared_ptr<Pair> pair);
  void pump(Pair& pair, int from_fd, int to_fd, std::uint64_t stream,
            bool fault_side);
  void kill_pair(Pair& pair, bool rst);
  int connect_upstream();

  ChaosProxyConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> truncates_{0};
  std::atomic<std::uint64_t> corrupts_{0};
  std::atomic<std::uint64_t> resets_{0};

  mutable std::mutex error_mutex_;
  std::string error_;

  // Active pairs (for stop() to abort) and every relay thread ever
  // spawned (joined at stop).
  std::mutex relay_mutex_;
  std::vector<std::shared_ptr<Pair>> pairs_;
  std::vector<std::thread> relays_;

  std::mutex stop_mutex_;
  std::thread acceptor_;
};

}  // namespace bp::net
