#include "obs/slo/health.h"

#include <cstdio>

namespace bp::obs::slo {

HealthModel::HealthModel(SignalsFn signals, const SloEngine* slo)
    : signals_(std::move(signals)), slo_(slo) {}

HealthReport HealthModel::fold(const HealthSignals& signals,
                               AlertState worst_gating, AlertState worst_any) {
  HealthReport report;
  report.ready = signals.model_version != 0 && !signals.degraded_active &&
                 worst_gating != AlertState::kPage;
  report.worst_alert = worst_any;

  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "ready: %s\nworst_alert: %s\nmodel_version: %llu%s\n"
      "degraded_active: %s\n"
      "retrain_breaker: %s\nstaleness_cycles: %llu\nquarantined_models: "
      "%llu\nqueue_depth: %llu/%llu\nshed_per_second: %.3f\narmed_faults: "
      "%llu\n",
      report.ready ? "true" : "false",
      std::string(alert_state_name(worst_any)).c_str(),
      static_cast<unsigned long long>(signals.model_version),
      signals.model_version == 0 ? " (nothing published)" : "",
      signals.degraded_active ? "true" : "false",
      signals.breaker_open ? "OPEN" : "closed",
      static_cast<unsigned long long>(signals.staleness_cycles),
      static_cast<unsigned long long>(signals.quarantined),
      static_cast<unsigned long long>(signals.queue_depth),
      static_cast<unsigned long long>(signals.queue_capacity),
      signals.shed_per_second,
      static_cast<unsigned long long>(signals.armed_faults));
  report.detail = buf;
  return report;
}

HealthReport HealthModel::evaluate() const {
  const HealthSignals signals = signals_ ? signals_() : HealthSignals{};
  const AlertState gating =
      slo_ != nullptr ? slo_->worst_state(/*gating_only=*/true)
                      : AlertState::kOk;
  const AlertState any =
      slo_ != nullptr ? slo_->worst_state() : AlertState::kOk;
  return fold(signals, gating, any);
}

}  // namespace bp::obs::slo
