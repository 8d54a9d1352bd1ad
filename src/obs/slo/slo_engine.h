// Declarative SLO evaluation with hysteresis: the alerting brain the
// paper's deployment story implies but never specifies.
//
// A web-scale fraud scorer is judged on *windowed* behaviour — error
// budget burn over the last five minutes vs the last hour, not
// lifetime averages.  The engine evaluates a fixed set of rules
// against a TimeSeriesWindow on every tick and maintains one alert
// state per rule:
//
//   kOk  ──fire──▶  kWarn  ──fire──▶  kPage
//    ▲                │                 │
//    └── clear_ticks ─┴─── consecutive quiet ticks ──┘
//
// Escalation is immediate (a page-level breach pages on the tick it
// appears, even from kOk); de-escalation is damped: the rule must
// evaluate below its firing thresholds for `clear_ticks` consecutive
// ticks before the state steps down (directly to the currently
// indicated level).  That asymmetry is the hysteresis — a flapping
// signal pages once and stays paged, instead of paging once per flap.
//
// Three rule kinds:
//   * kBurnRate — classic multi-window burn-rate alerting on a
//     bad/total counter pair: burn = (bad/total)/budget over a window;
//     fires only when BOTH the short and the long lookback burn exceed
//     the level's threshold (short confirms it is happening *now*,
//     long confirms it is not a blip);
//   * kErrorRate — plain bad/total fraction over the short lookback
//     vs warn/page thresholds;
//   * kCeiling — latest level of a gauge-like series vs warn/page
//     ceilings (model staleness, publish age, queue depth).
//
// Determinism contract (pinned by ObsSlo tests): evaluate() is a pure
// function of (tick timestamps, window contents) — no wall clock, no
// randomness — so a scripted trace produces a byte-identical
// transition log (`render_transitions()`) across runs and regardless
// of how many threads fed the underlying counters.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/slo/time_series.h"

namespace bp::obs::slo {

enum class AlertState : std::uint8_t { kOk = 0, kWarn = 1, kPage = 2 };

std::string_view alert_state_name(AlertState state) noexcept;

struct SloRule {
  enum class Kind : std::uint8_t { kBurnRate, kErrorRate, kCeiling };

  std::string name;
  Kind kind = Kind::kErrorRate;

  // kBurnRate / kErrorRate: bad-event and total-event counter series.
  // kCeiling: `numerator` is the level series; `denominator` unused.
  std::string numerator;
  std::string denominator;

  // kBurnRate: the error budget — allowed bad/total fraction.  A burn
  // rate of 1.0 consumes exactly the budget; 14.4 is the classic
  // "2% of a 30-day budget in one hour" page threshold.
  double budget = 0.001;
  std::int64_t short_window_ms = 5 * 60 * 1000;
  std::int64_t long_window_ms = 60 * 60 * 1000;
  double warn_burn = 6.0;
  double page_burn = 14.4;

  // kErrorRate: bad/total fraction thresholds over short_window_ms.
  // kCeiling: absolute level thresholds on latest(numerator).
  double warn_threshold = 0.0;
  double page_threshold = 0.0;

  // Consecutive quiet evaluations before the state steps down.
  int clear_ticks = 3;

  // When set, this rule's kPage state makes HealthModel report
  // not-ready (pull the instance from rotation); purely informational
  // otherwise.  Readiness-gating belongs on rules whose breach a
  // restart/rotation can actually help (stuck serving path), not on
  // fleet-wide conditions like model staleness.
  bool gate_readiness = false;
};

struct AlertTransition {
  std::int64_t at_ms = 0;
  std::string rule;
  AlertState from = AlertState::kOk;
  AlertState to = AlertState::kOk;
};

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  // Evaluate every rule against `window` at tick `now_ms`, apply
  // hysteresis, append transitions.  Returns the worst held state.
  AlertState evaluate(const TimeSeriesWindow& window, std::int64_t now_ms);

  // Worst held state across rules; with `gating_only`, across
  // readiness-gating rules only.
  AlertState worst_state(bool gating_only = false) const;

  std::vector<AlertTransition> transitions() const;
  std::uint64_t evaluations() const;

  // One line per transition, oldest first:
  //   t=<ms> rule=<name> <from>-><to>
  // The byte-comparison surface of the determinism tests.
  std::string render_transitions() const;

  // Human-readable rollup (one line per rule) for /statusz.
  std::string render_statuses() const;

 private:
  struct RuleState {
    SloRule rule;
    AlertState held = AlertState::kOk;
    AlertState indicated = AlertState::kOk;
    double short_value = 0.0;
    double long_value = 0.0;
    int quiet_ticks = 0;
  };

  // The raw (pre-hysteresis) level this tick indicates.
  AlertState indicate(const TimeSeriesWindow& window, RuleState& rs) const;

  mutable std::mutex mutex_;
  std::vector<RuleState> rules_;
  std::vector<AlertTransition> transitions_;
  std::uint64_t evaluations_ = 0;
};

}  // namespace bp::obs::slo
