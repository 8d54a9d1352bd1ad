// Deterministic fault injection for chaos testing.
//
// Production resilience claims ("a torn model file never evicts a
// serving model", "the engine never loses a response") are only worth
// anything if the failure paths actually run.  This registry lets code
// declare named fault points:
//
//   if (FAULT_POINT("model_io.write")) return false;  // injected failure
//
// and lets tests (or an operator, via BP_FAULTS) arm them with a firing
// probability and a seed:
//
//   BP_FAULTS=model_io.write:0.3:7,engine.worker_stall:0.01:11
//
// Decisions are a pure function of (seed, per-point evaluation index):
// the i-th evaluation of an armed point fires iff
// mix64(seed ^ mix64(i)) maps below `probability`.  Re-arming with the
// same seed therefore replays the exact same fault pattern — chaos
// tests are reproducible, and a failing soak can be re-run under a
// debugger with the same injected-fault trace.
//
// Unarmed cost: FAULT_POINT expands to one relaxed atomic load of a
// global armed-point count (no lock, no map lookup, no string work),
// so instrumented hot paths pay nothing in production.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bp::util {

class FaultRegistry {
 public:
  // Process-wide singleton.  On first use, arms every point named in
  // the BP_FAULTS environment variable (see arm_from_spec).
  static FaultRegistry& instance();

  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  // Arm `point` so evaluations fire with `probability`, deterministically
  // derived from `seed`.  Re-arming resets the point's evaluation count.
  void arm(std::string_view point, double probability, std::uint64_t seed);

  // Parse and arm a comma-separated spec: `name:probability:seed,...`.
  // The seed may be omitted (`name:probability`) and defaults to 0; a
  // bare `name` arms at probability 1.  Returns false (arming nothing
  // further) on the first malformed entry.
  bool arm_from_spec(std::string_view spec);

  void disarm(std::string_view point);
  void disarm_all();

  bool armed(std::string_view point) const;

  // True when at least one point is armed.  The only call on unarmed
  // hot paths (see FAULT_POINT); intentionally lock-free.
  bool any_armed() const noexcept {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // Number of armed points — exported as a gauge by the observability
  // layer (obs::register_fault_metrics).
  int armed_points() const noexcept {
    return armed_count_.load(std::memory_order_relaxed);
  }

  // Evaluate `point`: false when unarmed; otherwise the deterministic
  // per-seed decision for this point's next evaluation index.  Fired
  // evaluations are appended to the trace.
  bool should_fire(std::string_view point);

  // Observability for tests and soak assertions.
  std::uint64_t evaluations(std::string_view point) const;
  std::uint64_t fires(std::string_view point) const;
  std::uint64_t total_fires() const;

  // Fired events in firing order, as "point#evaluation_index".  With a
  // deterministic caller, the whole trace is reproducible from the arm
  // spec; with concurrent callers, the *set* per point still is.
  std::vector<std::string> trace() const;

  // Forget evaluation counts and the trace but keep points armed — a
  // fresh, replayable run of the same fault pattern.
  void reset_counters();

 private:
  FaultRegistry();

  struct Point {
    double probability = 1.0;
    std::uint64_t seed = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Point, std::less<>> points_;
  std::vector<std::string> trace_;
  std::atomic<int> armed_count_{0};
};

// RAII arming for tests: arm a spec (same grammar as BP_FAULTS /
// arm_from_spec) on construction, disarm *all* points and clear the
// counters on destruction — one test's chaos never leaks into the
// next, even when an assertion throws mid-test.
class ScopedFaults {
 public:
  explicit ScopedFaults(std::string_view spec) {
    FaultRegistry::instance().arm_from_spec(spec);
  }
  ~ScopedFaults() {
    FaultRegistry::instance().disarm_all();
    FaultRegistry::instance().reset_counters();
  }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace bp::util

// True iff the named fault point is armed and fires on this evaluation.
// One relaxed atomic load when nothing is armed anywhere.
#define FAULT_POINT(point)                           \
  (::bp::util::FaultRegistry::instance().any_armed() && \
   ::bp::util::FaultRegistry::instance().should_fire(point))
