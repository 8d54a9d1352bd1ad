// Exporters for the observability plane.
//
// Rendering is pull-based: `MetricsRegistry::render_prometheus()` /
// `render_json()` are plain functions an HTTP handler (or a test, or a
// bench) calls on demand, and the introspection server's /metrics is
// the one scrape surface.
//
// The functions here bridge other subsystems' counters into a
// MetricsRegistry as callback gauges read at render time: the
// fault-injection registry (util/fault.h), so chaos posture — how many
// points are armed, how often they fired — shows up in the same
// exposition as serving and training telemetry, and an HttpListener's
// serving and hardening counters.
#pragma once

#include <string>

#include "obs/metrics_registry.h"

namespace bp::net {
class HttpListener;
}  // namespace bp::net

namespace bp::obs {

// Export the process-wide FaultRegistry through `registry` as callback
// gauges: bp_fault_points_armed and bp_fault_fires_total.  Values are
// read live at render time.
void register_fault_metrics(MetricsRegistry& registry);

// Export an HttpListener's serving + hardening counters through
// `registry` as callback gauges: "<prefix>_requests_total",
// "<prefix>_overloaded_total" (connections shed at accept),
// "<prefix>_reaped_total" (idle keep-alive connections the reaper
// closed) and "<prefix>_slowloris_total"
// (requests cut off 408 at the request deadline).  The listener must
// outlive the registration — call remove_http_listener_metrics before
// it dies.
void register_http_listener_metrics(MetricsRegistry& registry,
                                    const net::HttpListener& listener,
                                    const std::string& prefix = "bp_http");
void remove_http_listener_metrics(MetricsRegistry& registry,
                                  const std::string& prefix = "bp_http");

}  // namespace bp::obs
