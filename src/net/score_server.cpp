#include "net/score_server.h"

#include <string_view>
#include <utility>

#include "obs/export.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"

namespace bp::net {

namespace {

void plain(HttpResponse& response, int status, std::string_view body) {
  response.status = status;
  response.content_type = "text/plain";
  response.body = body;
}

}  // namespace

ScoreServer::ScoreServer(const serve::ModelRegistry& models,
                         ScoreServerConfig config)
    : config_(std::move(config)),
      router_(models, config_.router, nullptr) {
  if (config_.registry != nullptr) {
    config_.registry->gauge_callback(
        config_.metrics_prefix + "_inflight",
        [this] { return static_cast<std::int64_t>(inflight()); });
    config_.registry->gauge_callback(
        config_.metrics_prefix + "_ingress_malformed_total",
        [this] { return static_cast<double>(malformed()); },
        "frames refused 400 by the wire parser or the feature-length "
        "check");
    trace_adopted_ = &config_.registry->counter(
        "bp_trace_adopted_total",
        "request frames whose t: trace context this ingress adopted");
  }
  ListenerConfig listener_config = config_.listener;
  listener_config.keep_alive = true;
  listener_.emplace(listener_config,
                    [this](const HttpRequest& request,
                           HttpResponse& response) {
                      handle(request, response);
                    });
  if (config_.registry != nullptr) {
    // The listener's serving + hardening counters (reaps, slow-loris
    // cutoffs) ride the same exposition as the ingress gauges.
    obs::register_http_listener_metrics(*config_.registry, *listener_,
                                        config_.metrics_prefix + "_http");
  }
}

ScoreServer::~ScoreServer() {
  stop();
  if (config_.registry != nullptr) {
    config_.registry->remove(config_.metrics_prefix + "_inflight");
    config_.registry->remove(config_.metrics_prefix +
                             "_ingress_malformed_total");
    obs::remove_http_listener_metrics(*config_.registry,
                                      config_.metrics_prefix + "_http");
  }
}

void ScoreServer::handle(const HttpRequest& request, HttpResponse& response) {
  if (request.method != "POST") {
    return plain(response, 405, "method not allowed\n");
  }
  if (request.path != "/score") {
    return plain(response, 404, "not found\n");
  }
  if (stopping_.load(std::memory_order_acquire)) {
    return plain(response, 503, "shutting down\n");
  }

  // Parse the frame into thread-local scratch: the feature vector keeps
  // its capacity across requests on this handler thread, and the
  // response body is the connection's reused buffer, so the
  // steady-state path allocates nothing.
  thread_local WireScoreRequest wire_request;
  const WireError parse = [&] {
    PROF_SCOPE("net.parse");
    return parse_score_request(request.body, &wire_request);
  }();
  if (parse != WireError::kOk) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    plain(response, 400, "bad frame: ");
    response.body.append(wire_error_name(parse));
    response.body.push_back('\n');
    return;
  }
  if (config_.expected_features != 0 &&
      wire_request.features.size() != config_.expected_features) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    plain(response, 400, "bad frame: expected ");
    response.body.append(std::to_string(config_.expected_features));
    response.body.append(" features, got ");
    response.body.append(std::to_string(wire_request.features.size()));
    response.body.push_back('\n');
    return;
  }

  // Adopted cross-hop trace context (the wire's t: segment): the
  // engine's spans for this request join the client's trace, and the
  // ingress contributes a serialize span of its own into the shards'
  // shared sink.  The client's sampling decision is final — an
  // unsampled context is adopted (counted, propagated to the engine)
  // but records nothing.
  const WireTraceContext trace = wire_request.trace;
  obs::TraceSink* trace_sink =
      trace.present() ? config_.router.engine.trace : nullptr;
  const bool trace_record = trace_sink != nullptr && trace.sampled;
  const std::uint32_t span_base = serve::adopted_span_base(trace.parent_span);
  if (trace.present() && trace_adopted_ != nullptr) {
    trace_adopted_->increment();
  }

  // Score inline, as a span of one on the session's shard.  Request,
  // response and scratch are thread-local like the wire buffers, so
  // their capacity persists across requests on this handler thread.
  // The session id is the engine correlation id (and, without a t:
  // context, the engine's trace id).
  thread_local serve::ScoreRequest score_request;
  thread_local serve::ScoreResponse engine_response;
  thread_local serve::ScoreScratch scratch;
  score_request.id = wire_request.session_id;
  score_request.features.assign(wire_request.features.begin(),
                                wire_request.features.end());
  score_request.claimed = wire_request.claimed;
  score_request.trace_id = trace.trace_id;
  score_request.trace_parent = trace.parent_span;
  score_request.trace_sampled = trace.sampled;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  const serve::SubmitResult scored = router_.score_now(
      wire_request.session_id, {&score_request, 1}, {&engine_response, 1},
      scratch);
  if (scored != serve::SubmitResult::kAdmitted) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    return plain(response, 503,
                 scored == serve::SubmitResult::kStopped
                     ? "shutting down\n"
                     : "no model published\n");
  }

  WireScoreResponse wire_response;
  wire_response.session_id = wire_request.session_id;
  wire_response.status = engine_response.status;
  wire_response.flagged = engine_response.detection.flagged;
  wire_response.risk_factor = engine_response.detection.risk_factor;
  wire_response.predicted_cluster = engine_response.detection.predicted_cluster;
  wire_response.model_version = engine_response.model_version;
  wire_response.latency_micros =
      static_cast<std::uint64_t>(engine_response.latency.count());
  const std::int64_t serialize_start_us =
      trace_record ? obs::steady_now_us() : 0;
  {
    PROF_SCOPE("net.serialize");
    render_score_response(wire_response, &response.body);
  }
  if (trace_record) {
    trace_sink->record_forced({trace.trace_id, span_base + 5, span_base + 1,
                               "serialize", serialize_start_us,
                               obs::steady_now_us()});
  }
  responses_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_relaxed);

  response.content_type = "application/x-bpwire";
}

void ScoreServer::stop() {
  if (stopped_.exchange(true)) {
    // Another caller ran (or is running) the sequence; serialize on it.
    std::lock_guard<std::mutex> lock(stop_mutex_);
    return;
  }
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stopping_.store(true, std::memory_order_release);
  // 1. Stop intake: no new connections; frames read from here on
  //    answer 503 (stopping_ gate in handle()).
  if (listener_) listener_->begin_stop();
  // 2. Join the handler pool: a handler scores inline, so every frame
  //    it already holds is answered before it returns.
  if (listener_) listener_->stop();
  // 3. Ordered shard stop — no handler can be inside a shard now.
  router_.stop();
}

}  // namespace bp::net
