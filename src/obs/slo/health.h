// Health rollup: one place that folds SLO state and live subsystem
// signals into the readiness verdict a load balancer consumes.
//
//   /readyz (serving fitness) — "should traffic be routed here?"
//     Requires a published model (ModelRegistry::version() != 0),
//     degraded mode not active, and no readiness-gating SLO rule held
//     at kPage.  This is the check an operator runs before and after a
//     hot swap: readiness flips to false while nothing is published
//     and back the moment a publish lands.
//
// Liveness (/healthz) is not folded here: a process whose introspection
// server answers is alive.  A missing model, an open retrain breaker or
// a paging SLO are not liveness failures — restarting would not
// conjure a model.
//
// The model pulls signals through one injectable callable so bp_obs
// never depends on bp_serve (serve already depends on obs): the caller
// snapshots ScoringEngine / RetrainSupervisor / ModelRegistry
// accessors into a HealthSignals value.  fold() is a pure function of
// (signals, worst gating alert) — the unit-testable core — and
// evaluate() is fold() over a fresh pull.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/slo/slo_engine.h"

namespace bp::obs::slo {

// One snapshot of everything health cares about, pulled from the
// serving tier's accessors.  Fields default to the most conservative
// reading ("nothing published, nothing wrong").
struct HealthSignals {
  std::uint64_t model_version = 0;  // ModelRegistry::version(); 0 = none
  bool degraded_active = false;     // engine answering via the UA prior
  bool breaker_open = false;          // RetrainSupervisor breaker
  std::uint64_t staleness_cycles = 0;  // cycles since last publish
  std::uint64_t quarantined = 0;       // ModelRegistry::quarantined()
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  double shed_per_second = 0.0;  // from the window; informational
  std::uint64_t armed_faults = 0;  // chaos posture, shown in /statusz
};

struct HealthReport {
  bool ready = false;
  AlertState worst_alert = AlertState::kOk;  // across ALL rules
  // Multi-line human-readable rollup (the /statusz core): one line per
  // contributing signal, verdict lines first.
  std::string detail;
};

class HealthModel {
 public:
  using SignalsFn = std::function<HealthSignals()>;

  // `slo` may be null (no SLO engine: alerts read kOk).  Both, when
  // set, must outlive the model.
  explicit HealthModel(SignalsFn signals, const SloEngine* slo = nullptr);

  // Pure verdict: no clocks, no pulls — the unit-test surface.
  // `worst_gating` is the worst held state across readiness-gating
  // rules; `worst_any` across all rules (reported, not gating).
  static HealthReport fold(const HealthSignals& signals,
                           AlertState worst_gating, AlertState worst_any);

  // Pull signals + SLO states and fold.
  HealthReport evaluate() const;

 private:
  SignalsFn signals_;
  const SloEngine* slo_;
};

}  // namespace bp::obs::slo
