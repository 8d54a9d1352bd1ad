// Retraining supervisor: the paper's §6.6 drift loop, made survivable.
//
// The paper assumes retraining always succeeds; at FinOrg volumes a
// retrain can crash, produce an untrainable dataset, or emit a model
// that fails validation.  The supervisor drives
//
//   drift check  ->  retrain  ->  validate  ->  hot-swap (publish)
//
// with per-cycle retry: failed attempts back off exponentially with
// deterministic jitter (util::backoff, seeded, so chaos runs replay
// exactly), and a circuit breaker (util::Breaker) opens after N
// consecutive failed *cycles* so a persistently broken training
// pipeline cannot hammer the data tier forever — it cools down while
// serving continues on the last-good model.  A model-staleness gauge
// (cycles since the last successful publish) is what an operator
// alarms on: staleness rising while the breaker is open is the "we are
// serving an old model" signal.
//
// The supervisor owns no thread.  The caller decides when a cycle runs
// and calls run_cycle() itself: fraud_detection_service runs one after
// its drift detector fires, on a thread of its own while serving
// continues.
//
// The three stages are injected as callables so the supervisor is
// test-drivable without a real training pipeline, and so callers
// decide what "validate" means (e.g. score a holdout within budget).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>

#include "core/polygraph.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "util/breaker.h"

namespace bp::serve {

enum class CycleResult : std::uint8_t {
  kNoDrift,      // drift check says the frozen model still holds
  kPublished,    // retrained, validated and hot-swapped
  kFailed,       // every attempt failed; breaker may now be open
  kBreakerOpen,  // skipped: breaker cooling down, staleness grows
};

std::string_view cycle_result_name(CycleResult r) noexcept;

struct RetrainConfig {
  // Attempts per cycle before the cycle counts as failed.
  int max_attempts = 3;
  // Backoff between attempts: initial * 2^attempt, capped, then
  // scaled by a jitter factor in [0.5, 1.0) drawn from jitter_seed.
  std::chrono::milliseconds initial_backoff{100};
  std::chrono::milliseconds max_backoff{5'000};
  std::uint64_t jitter_seed = 0x9d2c5680;
  // Consecutive failed cycles before the breaker opens, and how many
  // cycles it stays open before one probe cycle is allowed through (a
  // probe cycle that finds no drift leaves it half-open).
  int breaker_threshold = 3;
  int breaker_cooldown_cycles = 2;

  // ---- observability (optional; null = that plane disabled) ----
  //
  // After every cycle the full SupervisorStatus is exported here:
  // counters bp_retrain_{cycles,published,failed_cycles,attempts}_total
  // and gauges bp_retrain_{staleness_cycles,breaker_open,
  // consecutive_failures,last_published_version,last_backoff_ms}.
  obs::MetricsRegistry* registry = nullptr;

  // Per-cycle spans under trace id (1 << 62) + cycle number (the high
  // bit block keeps supervisor traces disjoint from request ids):
  //   1 "retrain_cycle" root,  2 "drift_check",  3 "train" (all
  //   attempts incl. backoff),  4 "validate",  5 "publish".
  obs::TraceSink* trace = nullptr;
};

struct SupervisorStatus {
  std::uint64_t cycles = 0;
  std::uint64_t published = 0;      // successful hot-swaps
  std::uint64_t failed_cycles = 0;  // cycles that exhausted all attempts
  std::uint64_t attempts = 0;       // train attempts across all cycles
  int consecutive_failures = 0;
  bool breaker_open = false;
  // Model-staleness gauge: cycles since the last successful publish
  // (or since startup when nothing was ever published).
  std::uint64_t staleness_cycles = 0;
  std::uint64_t last_published_version = 0;
  std::chrono::milliseconds last_backoff{0};
};

class RetrainSupervisor {
 public:
  using DriftCheck = std::function<bool()>;  // true = retraining required
  using TrainFn = std::function<std::optional<core::Polygraph>()>;
  using ValidateFn = std::function<bool(const core::Polygraph&)>;
  using SleepFn = std::function<void(std::chrono::milliseconds)>;

  // `sleep` defaults to std::this_thread::sleep_for; tests inject a
  // recorder so backoff schedules are asserted without waiting.
  RetrainSupervisor(ModelRegistry& registry, RetrainConfig config,
                    DriftCheck drift_check, TrainFn train, ValidateFn validate,
                    SleepFn sleep = {});

  RetrainSupervisor(const RetrainSupervisor&) = delete;
  RetrainSupervisor& operator=(const RetrainSupervisor&) = delete;

  // One synchronous supervision cycle.  Thread-safe (serialized).
  CycleResult run_cycle();

  // Close the breaker and forget the failure streak (operator action
  // after fixing the pipeline).
  void reset_breaker();

  SupervisorStatus status() const;

 private:
  CycleResult run_cycle_locked(std::unique_lock<std::mutex>& lock);
  void export_status_locked(CycleResult result, std::uint64_t attempts_delta);

  ModelRegistry& registry_;
  const RetrainConfig config_;
  DriftCheck drift_check_;
  TrainFn train_;
  ValidateFn validate_;
  SleepFn sleep_;

  mutable std::mutex mutex_;  // guards status_, breaker_, jitter_state_
  SupervisorStatus status_;  // breaker fields are read from breaker_
  util::Breaker breaker_;
  std::uint64_t jitter_state_;
};

}  // namespace bp::serve
