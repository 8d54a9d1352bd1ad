// Readiness: the verdict a load balancer reads from /readyz, and the
// health block of /statusz.
//
//   ready  <=>  a model is published (ModelRegistry::version() != 0).
//
// This is the check an operator runs before and after a hot swap:
// readiness is false while nothing is published and flips the moment a
// publish lands.  An open retrain breaker, quarantined models and
// armed faults are shown but never gate: a published model still
// answers.  Liveness (/healthz) is not folded here — a process whose
// introspection server answers is alive, and restarting it would not
// conjure a model.
//
// bp_obs never depends on bp_serve (serve already depends on obs), so
// the caller snapshots ScoringEngine / RetrainSupervisor /
// ModelRegistry accessors into a HealthSignals value, and fold() is a
// pure function of that value.
#pragma once

#include <cstdint>
#include <string>

namespace bp::obs {

// One snapshot of the serving tier's accessors.  The defaults read
// "nothing published, nothing wrong".
struct HealthSignals {
  std::uint64_t model_version = 0;     // ModelRegistry::version(); 0 = none
  bool breaker_open = false;           // RetrainSupervisor breaker
  std::uint64_t staleness_cycles = 0;  // cycles since the last publish
  std::uint64_t quarantined = 0;       // ModelRegistry::quarantined()
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t armed_faults = 0;  // chaos posture
};

struct HealthReport {
  bool ready = false;
  // One "name: value" line per signal, the verdict first.
  std::string detail;
};

HealthReport fold(const HealthSignals& signals);

}  // namespace bp::obs
