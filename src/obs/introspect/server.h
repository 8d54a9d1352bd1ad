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
//   /readyz        serving-fitness verdict (200/503) — obs::fold over
//                  the health signals (obs/health.h): 503 while no
//                  model is published, 200 after a publish; the check
//                  to run before and after a hot swap
//   /statusz       human-readable rollup: build info, the health
//                  signals, app extras
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

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/http_common.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/metrics_registry.h"
#include "obs/prof/contention.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"

namespace bp::obs::introspect {

// Events /tracez renders without an n= parameter: the most recent ones,
// not the whole trace ring (thousands of events, a large body to build
// under a scrape).
inline constexpr std::size_t kTracezDefaultEvents = 256;

// What the server exposes.  Any pointer or callable may be null — the
// matching endpoints then answer 404 (/readyz: 503).  /healthz needs
// none: reaching the handler proves the process is alive.  All
// referents must outlive the server.
struct Sources {
  const MetricsRegistry* metrics = nullptr;
  const TraceSink* trace = nullptr;
  const AuditTrail* audit = nullptr;
  // Pulled on every /readyz and /statusz and folded by obs::fold.
  std::function<HealthSignals()> health;
  // Continuous profiler (for /profilez and /profilez.json) and the
  // process-wide contention-site registry (for /contentionz).
  const prof::Profiler* profiler = nullptr;
  const prof::ContentionRegistry* contention = nullptr;
  // Extra app-specific lines appended to /statusz (may be empty).
  std::function<std::string()> statusz_extra;
};

class IntrospectionServer {
 public:
  // Binds and starts serving immediately.  On bind/listen failure the
  // server constructs non-running with error() set — callers decide
  // whether that is fatal (the example does; tests assert running()).
  // `config.keep_alive` is forced off: one request per connection.
  explicit IntrospectionServer(Sources sources,
                               net::ListenerConfig config = {});
  ~IntrospectionServer();

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  bool running() const noexcept { return listener_ && listener_->running(); }
  std::uint16_t port() const noexcept {
    return listener_ ? listener_->port() : 0;
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
  std::optional<net::HttpListener> listener_;
};

}  // namespace bp::obs::introspect
