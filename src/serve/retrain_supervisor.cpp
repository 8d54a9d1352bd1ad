#include "serve/retrain_supervisor.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/rng.h"

namespace bp::serve {

std::string_view cycle_result_name(CycleResult r) noexcept {
  switch (r) {
    case CycleResult::kNoDrift: return "no_drift";
    case CycleResult::kPublished: return "published";
    case CycleResult::kFailed: return "failed";
    case CycleResult::kBreakerOpen: return "breaker_open";
  }
  return "unknown";
}

RetrainSupervisor::RetrainSupervisor(ModelRegistry& registry,
                                     RetrainConfig config,
                                     DriftCheck drift_check, TrainFn train,
                                     ValidateFn validate, SleepFn sleep)
    : registry_(registry),
      config_(config),
      drift_check_(std::move(drift_check)),
      train_(std::move(train)),
      validate_(std::move(validate)),
      sleep_(std::move(sleep)),
      breaker_(config.breaker_threshold, config.breaker_cooldown_cycles),
      jitter_state_(config.jitter_seed) {
  if (!sleep_) {
    sleep_ = [](std::chrono::milliseconds d) {
      std::this_thread::sleep_for(d);
    };
  }
}

CycleResult RetrainSupervisor::run_cycle() {
  std::unique_lock lock(mutex_);
  ++status_.cycles;
  const std::uint64_t attempts_before = status_.attempts;
  const CycleResult result = run_cycle_locked(lock);
  if (config_.registry != nullptr) {
    export_status_locked(result, status_.attempts - attempts_before);
  }
  return result;
}

CycleResult RetrainSupervisor::run_cycle_locked(
    std::unique_lock<std::mutex>& lock) {
  // Trace id: the (1 << 62) block keeps supervisor cycles disjoint from
  // request-path trace ids, and the cycle number makes the id (and so
  // the sampling decision) deterministic.
  const std::uint64_t trace_id = (std::uint64_t{1} << 62) + status_.cycles;
  obs::TraceSink* trace = config_.trace;
  const bool traced = trace != nullptr && trace->sampled(trace_id);
  const std::int64_t cycle_begin_us = traced ? obs::steady_now_us() : 0;
  const auto finish = [&](CycleResult result) {
    if (traced) {
      trace->record({trace_id, 1, 0, "retrain_cycle", cycle_begin_us,
                     obs::steady_now_us()});
    }
    return result;
  };

  if (!breaker_.admit()) {
    ++status_.staleness_cycles;
    return finish(CycleResult::kBreakerOpen);
  }

  const std::int64_t drift_begin_us = traced ? obs::steady_now_us() : 0;
  const bool drifted = drift_check_();
  if (traced) {
    trace->record({trace_id, 2, 1, "drift_check", drift_begin_us,
                   obs::steady_now_us()});
  }
  if (!drifted) {
    // The frozen model still holds.  Nothing was trained, so a probe
    // cycle proves nothing: the breaker stays half-open (open, cooldown
    // spent) and the next cycle is the probe again.
    breaker_.return_probe();
    ++status_.staleness_cycles;
    return finish(CycleResult::kNoDrift);
  }

  // Span 3 "train" covers the whole attempt loop — retries and backoff
  // included — so its duration is the cycle's total training cost.
  const std::int64_t train_begin_us = traced ? obs::steady_now_us() : 0;
  const auto end_train_span = [&] {
    if (traced) {
      trace->record(
          {trace_id, 3, 1, "train", train_begin_us, obs::steady_now_us()});
    }
  };

  for (int attempt = 0; attempt < std::max(1, config_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      // Deterministic jitter: splitmix64 is a pure function of the
      // advancing state, so the same jitter_seed replays the same
      // backoff schedule — chaos runs stay reproducible.
      const double unit =
          static_cast<double>(util::splitmix64(jitter_state_) >> 11) *
          0x1.0p-53;
      const auto backoff = util::backoff(
          config_.initial_backoff, config_.max_backoff, attempt - 1, unit);
      status_.last_backoff = backoff;
      // Sleep outside the lock so status() stays readable mid-backoff.
      lock.unlock();
      sleep_(backoff);
      lock.lock();
    }
    ++status_.attempts;

    std::optional<core::Polygraph> candidate = train_();
    if (!candidate.has_value()) continue;  // retrain crashed / no data

    const std::int64_t validate_begin_us = traced ? obs::steady_now_us() : 0;
    const bool valid = !validate_ || validate_(*candidate);
    if (traced) {
      trace->record({trace_id, 4, 1, "validate", validate_begin_us,
                     obs::steady_now_us()});
    }
    if (!valid) continue;  // failed holdout

    const std::int64_t publish_begin_us = traced ? obs::steady_now_us() : 0;
    const std::uint64_t version = registry_.publish(std::move(*candidate));
    if (version == 0) continue;  // registry refused (untrained model)
    end_train_span();
    if (traced) {
      trace->record({trace_id, 5, 1, "publish", publish_begin_us,
                     obs::steady_now_us()});
    }

    status_.last_published_version = version;
    ++status_.published;
    breaker_.on_success();
    status_.staleness_cycles = 0;
    return finish(CycleResult::kPublished);
  }
  end_train_span();

  ++status_.failed_cycles;
  ++status_.staleness_cycles;
  breaker_.on_failure();
  return finish(CycleResult::kFailed);
}

void RetrainSupervisor::export_status_locked(CycleResult result,
                                             std::uint64_t attempts_delta) {
  obs::MetricsRegistry& r = *config_.registry;
  r.counter("bp_retrain_cycles_total", "supervision cycles run").increment();
  r.counter("bp_retrain_attempts_total", "train attempts across all cycles")
      .add(attempts_delta);
  r.counter("bp_retrain_published_total", "successful hot-swaps")
      .add(result == CycleResult::kPublished ? 1 : 0);
  r.counter("bp_retrain_failed_cycles_total",
            "cycles that exhausted all attempts")
      .add(result == CycleResult::kFailed ? 1 : 0);
  r.gauge("bp_retrain_staleness_cycles",
          "cycles since the last successful publish")
      .set(static_cast<double>(status_.staleness_cycles));
  r.gauge("bp_retrain_breaker_open", "1 while the circuit breaker is open")
      .set(breaker_.open() ? 1.0 : 0.0);
  r.gauge("bp_retrain_consecutive_failures", "current failed-cycle streak")
      .set(static_cast<double>(breaker_.consecutive_failures()));
  r.gauge("bp_retrain_last_published_version",
          "registry version of the last successful publish")
      .set(static_cast<double>(status_.last_published_version));
  r.gauge("bp_retrain_last_backoff_ms", "most recent retry backoff")
      .set(static_cast<double>(status_.last_backoff.count()));
}

void RetrainSupervisor::reset_breaker() {
  std::lock_guard lock(mutex_);
  breaker_.reset();
}

SupervisorStatus RetrainSupervisor::status() const {
  std::lock_guard lock(mutex_);
  SupervisorStatus status = status_;
  status.breaker_open = breaker_.open();
  status.consecutive_failures = breaker_.consecutive_failures();
  return status;
}

}  // namespace bp::serve
