// The scoring ingress: POST /score over real TCP, in front of a
// sharded EngineRouter.
//
// This is the deployment surface the paper's FinOrg setting implies —
// a verdict served inline on web traffic, within §3's ~100 ms budget.
// The HTTP plumbing is the shared HttpListener (keep-alive +
// pipelining on); the body is one wire frame (net/wire.h); the answer
// is one wire frame carrying the verdict and the model version that
// produced it.
//
// Each parsed frame is scored inline on the handler thread that read
// it — a span of one on its session's shard (EngineRouter::score_now),
// whose verdict cache is probed and filled as usual.  There is no
// hand-off to a shard worker and nothing to wait on: the kernel is
// ~200 ns of arithmetic, so the queue push and the two wake-ups a
// hand-off adds around it are dropped.
//
// Overload posture, outermost first:
//
//   1. shed-at-accept  — the listener drops connections beyond its
//                        bounded pending queue (overloaded());
//   2. handler threads — a frame is in flight only while a handler
//                        thread scores it, so in-flight work is bounded
//                        by ListenerConfig::handler_threads; excess
//                        requests wait in their connections' socket
//                        buffers, not in server memory.
//
// Explicit 503s (counted in admission_rejected()), never a hang:
// "shutting down" once stop() has begun or the shards are stopped, and
// "no model published" while nothing is published and
// EngineConfig::degrade_without_model is off (with it on, the answer is
// a degraded verdict naming version 0).  The shard queues and their
// overflow policy serve in-process EngineRouter::submit() callers only.
//
// Ordered teardown (stop()): mark stopping (frames read from now on
// answer 503) -> stop accepting -> join the handler pool (every frame a
// handler already holds is answered before its connection closes) ->
// stop the shards (ordered, 0..N-1).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "net/engine_router.h"
#include "net/http_common.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "serve/model_registry.h"

namespace bp::net {

struct ScoreServerConfig {
  // `listener.keep_alive` is forced on — a scoring ingress that closed
  // every connection would spend its budget on TCP handshakes.
  ListenerConfig listener;
  RouterConfig router;

  // Expected feature-vector length; frames with any other length are
  // refused with 400 before they reach a shard.  0 = accept any length
  // (only for tests that control every client).
  std::size_t expected_features = 0;

  // Ingress counters land here when set ("<metrics_prefix>_ingress_*",
  // plus an "<metrics_prefix>_inflight" callback gauge and the
  // listener's "<metrics_prefix>_http_*" hardening gauges via
  // obs/export.h); the router's per-shard instruments are configured
  // via router.engine.registry.
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_prefix = "bp_net";
};

class ScoreServer {
 public:
  // Binds and serves immediately.  On bind failure running() is false
  // and error() says why (the router's shards are still constructed;
  // stop() tears everything down either way).
  ScoreServer(const serve::ModelRegistry& models, ScoreServerConfig config);
  ~ScoreServer();

  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  bool running() const noexcept { return listener_ && listener_->running(); }
  std::uint16_t port() const noexcept {
    return listener_ ? listener_->port() : 0;
  }
  std::string error() const { return listener_ ? listener_->error() : ""; }

  EngineRouter& router() noexcept { return router_; }
  const EngineRouter& router() const noexcept { return router_; }

  // HTTP requests answered / connections shed at accept (listener).
  std::uint64_t requests() const noexcept {
    return listener_ ? listener_->requests() : 0;
  }
  std::uint64_t overloaded() const noexcept {
    return listener_ ? listener_->overloaded() : 0;
  }
  // Frames refused 400 by the wire parser or the feature-length check.
  std::uint64_t malformed() const noexcept {
    return malformed_.load(std::memory_order_relaxed);
  }
  // Frames refused 503: shutting down / shards stopped, or no model
  // published without the degraded fallback.
  std::uint64_t admission_rejected() const noexcept {
    return admission_rejected_.load(std::memory_order_relaxed);
  }
  // Wire responses delivered (any status).
  std::uint64_t responses() const noexcept {
    return responses_.load(std::memory_order_relaxed);
  }
  // Frames between parse and answer (at most handler_threads).
  std::size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

  // Ordered teardown; idempotent; the destructor calls it.
  void stop();

 private:
  void handle(const HttpRequest& request, HttpResponse& response);

  ScoreServerConfig config_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> admission_rejected_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::size_t> inflight_{0};
  bool gauge_registered_ = false;
  // bp_trace_adopted_total: request frames carrying a t: trace context
  // this ingress adopted (the server half of the client's
  // bp_trace_propagated_total).  Null when no registry is configured.
  obs::Counter* trace_adopted_ = nullptr;

  // Router before listener: handlers reference the router, so it must
  // outlive (and be constructed before) the listener that runs them.
  EngineRouter router_;
  std::optional<HttpListener> listener_;
};

}  // namespace bp::net
