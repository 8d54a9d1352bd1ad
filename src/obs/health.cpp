#include "obs/health.h"

#include <cstdio>

namespace bp::obs {

HealthReport fold(const HealthSignals& signals) {
  HealthReport report;
  report.ready = signals.model_version != 0;

  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ready: %s\nmodel_version: %llu%s\n"
      "retrain_breaker: %s\nstaleness_cycles: %llu\nquarantined_models: "
      "%llu\nqueue_depth: %llu/%llu\narmed_faults: %llu\n",
      report.ready ? "true" : "false",
      static_cast<unsigned long long>(signals.model_version),
      signals.model_version == 0 ? " (nothing published)" : "",
      signals.breaker_open ? "OPEN" : "closed",
      static_cast<unsigned long long>(signals.staleness_cycles),
      static_cast<unsigned long long>(signals.quarantined),
      static_cast<unsigned long long>(signals.queue_depth),
      static_cast<unsigned long long>(signals.queue_capacity),
      static_cast<unsigned long long>(signals.armed_faults));
  report.detail = buf;
  return report;
}

}  // namespace bp::obs
