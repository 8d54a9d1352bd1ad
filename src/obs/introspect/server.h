// Live introspection server: the scrape endpoint PR 4's exporter
// header promised ("plain functions an HTTP handler ... calls on
// demand") but never ran.
//
// The socket plumbing — accept loop, handler pool, bounded pending
// queue, per-connection I/O timeouts — is the shared net::HttpListener
// (src/net/http_common.h), configured with keep-alive OFF: one request
// per connection remains this plane's contract, and non-GET verbs are
// refused 405 here in the handler.  What stays in this class is the
// introspection policy: the endpoint table and its render calls.
//
// Endpoints (all GET):
//
//   /metrics       Prometheus text exposition (MetricsRegistry)
//   /metrics.json  the same registry as one JSON object
//   /healthz       liveness: 200 `ok` whenever the server answers
//   /readyz        serving-fitness verdict (200/503) — flips to 503
//                  while no model is published or degraded mode is
//                  active, back after a publish; the check to run
//                  before and after a hot swap
//   /statusz       human-readable rollup: health signals, SLO rule
//                  states, recent alert transitions, app extras
//   /tracez        TraceSink render (with timing); ?trace=ID keeps one
//                  trace id (the cross-hop drill-down), ?n=K keeps the
//                  K most recent matching events (default
//                  kTracezDefaultEvents, n=0 the whole ring); a
//                  malformed value in either is refused 400
//   /auditz?n=K    most recent K AuditTrail records as JSONL
//   /profilez      collapsed-stack profile (flamegraph.pl input);
//                  ?seconds=N (default 1, clamped to [1,30]) windows
//                  the capture by diffing two table snapshots
//   /profilez.json tag-attribution tree (self/total sample counts)
//                  over the whole profiler run
//   /contentionz   named contention sites: queue block time, registry
//                  swap stalls, cache CAS losses, with block-time
//                  histograms in the obs::hist layout
//
// Design constraints, in order: never perturb the scoring hot path
// (handlers only call the registry/sink render functions, which take
// the same short locks any exporter takes); bounded everything; port 0
// support so tests bind ephemerally and read port() back.
//
// handle() — the request -> response dispatch — is a pure-ish const
// function exposed for unit tests; the socket plumbing around it is
// exercised by the real-TCP tests and the tier-1 curl smoke.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/http_common.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/prof/contention.h"
#include "obs/prof/prof.h"
#include "obs/slo/health.h"
#include "obs/slo/slo_engine.h"
#include "obs/trace.h"

namespace bp::obs::introspect {

// Events /tracez renders without an n= parameter: the most recent ones,
// not the whole trace ring (thousands of events, a large body to build
// under a scrape).
inline constexpr std::size_t kTracezDefaultEvents = 256;

// What the server exposes.  Any pointer may be null — the matching
// endpoints then answer 404 (/readyz: 503).  /healthz needs none:
// reaching the handler proves the process is alive.  All referents
// must outlive the server.
struct Sources {
  const MetricsRegistry* metrics = nullptr;
  const TraceSink* trace = nullptr;
  const AuditTrail* audit = nullptr;
  const slo::HealthModel* health = nullptr;
  const slo::SloEngine* slo = nullptr;
  // Continuous profiler (for /profilez and /profilez.json) and the
  // process-wide contention-site registry (for /contentionz).
  const prof::Profiler* profiler = nullptr;
  const prof::ContentionRegistry* contention = nullptr;
  // Extra app-specific lines appended to /statusz (may be empty).
  std::function<std::string()> statusz_extra;
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the choice via port()
  std::size_t handler_threads = 2;
  std::size_t max_pending = 64;  // accepted connections awaiting a handler
  std::chrono::milliseconds io_timeout{2000};  // per-connection recv/send
};

class IntrospectionServer {
 public:
  // Binds and starts serving immediately.  On bind/listen failure the
  // server constructs non-running with error() set — callers decide
  // whether that is fatal (the example does; tests assert running()).
  explicit IntrospectionServer(Sources sources, ServerConfig config = {});
  ~IntrospectionServer();

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  bool running() const noexcept { return listener_ && listener_->running(); }
  std::uint16_t port() const noexcept {
    return listener_ ? listener_->port() : 0;
  }
  const std::string& bind_address() const noexcept {
    return config_.bind_address;
  }
  std::string error() const { return listener_ ? listener_->error() : ""; }

  std::uint64_t requests() const noexcept {
    return listener_ ? listener_->requests() : 0;
  }
  // Connections dropped because the pending queue was full.
  std::uint64_t overloaded() const noexcept {
    return listener_ ? listener_->overloaded() : 0;
  }

  // Dispatch one parsed request.  Const and lock-light: every data
  // source is read through its own thread-safe render call.
  net::HttpResponse handle(const net::HttpRequest& request) const;

  // Stops accepting, drains/closes pending connections, joins all
  // threads.  Idempotent; the destructor calls it.
  void stop();

 private:
  std::string render_statusz() const;

  Sources sources_;
  ServerConfig config_;
  std::optional<net::HttpListener> listener_;
};

}  // namespace bp::obs::introspect
