#include "obs/export.h"

#include "net/http_common.h"
#include "util/fault.h"

namespace bp::obs {

void register_fault_metrics(MetricsRegistry& registry) {
  registry.gauge_callback(
      "bp_fault_points_armed",
      [] {
        return static_cast<double>(
            bp::util::FaultRegistry::instance().armed_points());
      },
      "fault-injection points currently armed");
  registry.gauge_callback(
      "bp_fault_fires_total",
      [] {
        return static_cast<double>(
            bp::util::FaultRegistry::instance().total_fires());
      },
      "injected faults fired across all points");
}

void register_http_listener_metrics(MetricsRegistry& registry,
                                    const net::HttpListener& listener,
                                    const std::string& prefix) {
  registry.gauge_callback(
      prefix + "_requests_total",
      [&listener] { return static_cast<double>(listener.requests()); },
      "HTTP requests answered");
  registry.gauge_callback(
      prefix + "_overloaded_total",
      [&listener] { return static_cast<double>(listener.overloaded()); },
      "connections shed at accept (pending queue full)");
  registry.gauge_callback(
      prefix + "_reaped_total",
      [&listener] { return static_cast<double>(listener.reaped()); },
      "idle keep-alive connections closed by the reaper");
  registry.gauge_callback(
      prefix + "_slowloris_total",
      [&listener] { return static_cast<double>(listener.slowloris()); },
      "requests cut off 408 at the request deadline");
}

void remove_http_listener_metrics(MetricsRegistry& registry,
                                  const std::string& prefix) {
  registry.remove(prefix + "_requests_total");
  registry.remove(prefix + "_overloaded_total");
  registry.remove(prefix + "_reaped_total");
  registry.remove(prefix + "_slowloris_total");
}

}  // namespace bp::obs
