#include "obs/introspect/server.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/introspect/build_info.h"

namespace bp::obs::introspect {

IntrospectionServer::IntrospectionServer(Sources sources,
                                         net::ListenerConfig config)
    : sources_(std::move(sources)) {
  // One request per connection: the introspection plane's historical
  // contract (scrapers open fresh connections each cadence anyway).
  config.keep_alive = false;
  listener_.emplace(std::move(config),
                    [this](const net::HttpRequest& request,
                           net::HttpResponse& response) {
                      if (request.method != "GET") {
                        response.status = 405;
                        response.body = "only GET is served here\n";
                        return;
                      }
                      response = handle(request);
                    });
}

IntrospectionServer::~IntrospectionServer() { stop(); }

net::HttpResponse IntrospectionServer::handle(
    const net::HttpRequest& request) const {
  net::HttpResponse response;
  if (request.path == "/metrics") {
    if (sources_.metrics == nullptr) {
      response.status = 404;
      response.body = "no metrics registry attached\n";
      return response;
    }
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = sources_.metrics->render_prometheus();
    return response;
  }
  if (request.path == "/metrics.json") {
    if (sources_.metrics == nullptr) {
      response.status = 404;
      response.body = "no metrics registry attached\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = sources_.metrics->render_json();
    return response;
  }
  if (request.path == "/healthz") {
    // Answering at all is the liveness proof.
    response.body = "ok\n";
    return response;
  }
  if (request.path == "/readyz") {
    if (!sources_.health) {
      response.status = 503;
      response.body = "no health signals attached\n";
      return response;
    }
    const HealthReport report = fold(sources_.health());
    response.status = report.ready ? 200 : 503;
    response.body = report.ready ? "ok\n" : report.detail;
    return response;
  }
  if (request.path == "/statusz") {
    response.body = render_statusz();
    return response;
  }
  if (request.path == "/tracez") {
    if (sources_.trace == nullptr) {
      response.status = 404;
      response.body = "no trace sink attached\n";
      return response;
    }
    // ?trace=<id> keeps one trace (the cross-hop drill-down: paste the
    // id a ScoreCallResult or an exemplar reported, on either side of
    // the wire); ?n=K keeps the K most recent matching events (n=0: all
    // of them), kTracezDefaultEvents without n.  A present-but-
    // unparseable value is the operator's typo — 400, not a silently
    // unfiltered dump.
    std::uint64_t trace_filter = 0;
    std::uint64_t limit = kTracezDefaultEvents;
    if (net::query_uint_checked(request.query, "trace", &trace_filter) ==
        net::QueryParam::kMalformed) {
      response.status = 400;
      response.body = "bad query: trace must be a non-negative integer\n";
      return response;
    }
    if (net::query_uint_checked(request.query, "n", &limit) ==
        net::QueryParam::kMalformed) {
      response.status = 400;
      response.body = "bad query: n must be a non-negative integer\n";
      return response;
    }
    response.body = sources_.trace->render(/*include_timing=*/true,
                                           trace_filter,
                                           static_cast<std::size_t>(limit));
    return response;
  }
  if (request.path == "/auditz") {
    if (sources_.audit == nullptr) {
      response.status = 404;
      response.body = "no audit trail attached\n";
      return response;
    }
    // Same typed-400 contract as /tracez and /profilez: a malformed
    // value is the operator's typo, never silently the default.
    std::uint64_t n = 100;
    if (net::query_uint_checked(request.query, "n", &n) ==
        net::QueryParam::kMalformed) {
      response.status = 400;
      response.body = "bad query: n must be a non-negative integer\n";
      return response;
    }
    response.content_type = "application/jsonl";
    response.body = sources_.audit->render_jsonl(
        /*include_timing=*/true, static_cast<std::size_t>(n));
    return response;
  }
  if (request.path == "/profilez") {
    if (sources_.profiler == nullptr) {
      response.status = 404;
      response.body = "no profiler attached\n";
      return response;
    }
    std::uint64_t seconds = 1;
    if (net::query_uint_checked(request.query, "seconds", &seconds) ==
        net::QueryParam::kMalformed) {
      response.status = 400;
      response.body = "bad query: seconds must be a non-negative integer\n";
      return response;
    }
    // The capture window is the diff of two snapshots of the profiler's
    // monotonic table, so concurrent /profilez requests never disturb
    // each other.  The handler sleeps the window out — introspection
    // handlers are cheap and pooled, and the clamp keeps one slow
    // request from parking a handler for minutes.
    seconds = std::clamp<std::uint64_t>(seconds, 1, 30);
    const prof::ProfileSnapshot before = sources_.profiler->snapshot();
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    const prof::ProfileSnapshot after = sources_.profiler->snapshot();
    response.body = prof::Profiler::render_collapsed(
        prof::Profiler::diff(before, after));
    return response;
  }
  if (request.path == "/profilez.json") {
    if (sources_.profiler == nullptr) {
      response.status = 404;
      response.body = "no profiler attached\n";
      return response;
    }
    response.content_type = "application/json";
    response.body =
        prof::Profiler::render_tag_tree_json(sources_.profiler->snapshot());
    return response;
  }
  if (request.path == "/contentionz") {
    if (sources_.contention == nullptr) {
      response.status = 404;
      response.body = "no contention registry attached\n";
      return response;
    }
    response.body = sources_.contention->render();
    return response;
  }
  response.status = 404;
  response.body =
      "not found; endpoints: /metrics /metrics.json /healthz /readyz "
      "/statusz /tracez?trace=ID&n=K (default n=" +
      std::to_string(kTracezDefaultEvents) +
      ", n=0 all) /auditz?n=K /profilez?seconds=N /profilez.json "
      "/contentionz\n";
  return response;
}

std::string IntrospectionServer::render_statusz() const {
  std::string out = "browser-polygraph introspection\n";
  out += "requests_served: " + std::to_string(requests()) + "\n";
  out += "\n-- build --\n" + render_build_info();
  if (sources_.health) {
    out += "\n-- health --\n" + fold(sources_.health()).detail;
  }
  if (sources_.statusz_extra) {
    const std::string extra = sources_.statusz_extra();
    if (!extra.empty()) out += "\n-- service --\n" + extra;
  }
  return out;
}

void IntrospectionServer::stop() {
  if (listener_) listener_->stop();
}

}  // namespace bp::obs::introspect
