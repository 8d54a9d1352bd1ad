#include "obs/slo/slo_engine.h"

#include <algorithm>
#include <cstdio>

namespace bp::obs::slo {

std::string_view alert_state_name(AlertState state) noexcept {
  switch (state) {
    case AlertState::kOk: return "kOk";
    case AlertState::kWarn: return "kWarn";
    case AlertState::kPage: return "kPage";
  }
  return "?";
}

namespace {

AlertState worse(AlertState a, AlertState b) noexcept {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

// bad/total fraction over one lookback; 0 when nothing happened (no
// traffic is not an SLO breach).
double fraction(const TimeSeriesWindow& window, const SloRule& rule,
                std::int64_t lookback_ms) {
  const double total = window.delta(rule.denominator, lookback_ms);
  if (total <= 0.0) return 0.0;
  return window.delta(rule.numerator, lookback_ms) / total;
}

}  // namespace

SloEngine::SloEngine(std::vector<SloRule> rules) {
  rules_.reserve(rules.size());
  for (SloRule& rule : rules) {
    RuleState rs;
    rs.rule = std::move(rule);
    rules_.push_back(std::move(rs));
  }
}

AlertState SloEngine::indicate(const TimeSeriesWindow& window,
                               RuleState& rs) const {
  const SloRule& rule = rs.rule;
  switch (rule.kind) {
    case SloRule::Kind::kBurnRate: {
      const double budget = std::max(rule.budget, 1e-12);
      rs.short_value = fraction(window, rule, rule.short_window_ms) / budget;
      rs.long_value = fraction(window, rule, rule.long_window_ms) / budget;
      // Both windows must burn: the short one proves the breach is
      // current, the long one proves it is sustained.
      const double confirmed = std::min(rs.short_value, rs.long_value);
      if (confirmed >= rule.page_burn) return AlertState::kPage;
      if (confirmed >= rule.warn_burn) return AlertState::kWarn;
      return AlertState::kOk;
    }
    case SloRule::Kind::kErrorRate: {
      rs.short_value = fraction(window, rule, rule.short_window_ms);
      rs.long_value = 0.0;
      if (rule.page_threshold > 0.0 && rs.short_value >= rule.page_threshold) {
        return AlertState::kPage;
      }
      if (rule.warn_threshold > 0.0 && rs.short_value >= rule.warn_threshold) {
        return AlertState::kWarn;
      }
      return AlertState::kOk;
    }
    case SloRule::Kind::kCeiling: {
      rs.short_value = window.latest(rule.numerator);
      rs.long_value = 0.0;
      if (rule.page_threshold > 0.0 && rs.short_value >= rule.page_threshold) {
        return AlertState::kPage;
      }
      if (rule.warn_threshold > 0.0 && rs.short_value >= rule.warn_threshold) {
        return AlertState::kWarn;
      }
      return AlertState::kOk;
    }
  }
  return AlertState::kOk;
}

AlertState SloEngine::evaluate(const TimeSeriesWindow& window,
                               std::int64_t now_ms) {
  std::lock_guard lock(mutex_);
  AlertState worst = AlertState::kOk;
  for (RuleState& rs : rules_) {
    rs.indicated = indicate(window, rs);
    const AlertState before = rs.held;
    if (rs.indicated > rs.held) {
      // Escalate immediately: a page-level breach must not wait out a
      // damping window.
      rs.held = rs.indicated;
      rs.quiet_ticks = 0;
    } else if (rs.indicated < rs.held) {
      // De-escalate only after clear_ticks consecutive quiet ticks —
      // then drop straight to the indicated level (a rule that went
      // fully quiet clears to kOk, not through kWarn).
      if (++rs.quiet_ticks >= std::max(rs.rule.clear_ticks, 1)) {
        rs.held = rs.indicated;
        rs.quiet_ticks = 0;
      }
    } else {
      rs.quiet_ticks = 0;
    }
    if (rs.held != before) {
      transitions_.push_back({now_ms, rs.rule.name, before, rs.held});
    }
    worst = worse(worst, rs.held);
  }
  ++evaluations_;
  return worst;
}

AlertState SloEngine::worst_state(bool gating_only) const {
  std::lock_guard lock(mutex_);
  AlertState worst = AlertState::kOk;
  for (const RuleState& rs : rules_) {
    if (gating_only && !rs.rule.gate_readiness) continue;
    worst = worse(worst, rs.held);
  }
  return worst;
}

std::vector<AlertTransition> SloEngine::transitions() const {
  std::lock_guard lock(mutex_);
  return transitions_;
}

std::uint64_t SloEngine::evaluations() const {
  std::lock_guard lock(mutex_);
  return evaluations_;
}

std::string SloEngine::render_transitions() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const AlertTransition& t : transitions_) {
    out += "t=" + std::to_string(t.at_ms) + " rule=" + t.rule + " " +
           std::string(alert_state_name(t.from)) + "->" +
           std::string(alert_state_name(t.to)) + "\n";
  }
  return out;
}

std::string SloEngine::render_statuses() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const RuleState& rs : rules_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-24s %-5s short=%.4g long=%.4g quiet=%d%s\n",
                  rs.rule.name.c_str(),
                  std::string(alert_state_name(rs.held)).c_str(),
                  rs.short_value, rs.long_value, rs.quiet_ticks,
                  rs.rule.gate_readiness ? " [gates readiness]" : "");
    out += line;
  }
  return out;
}

}  // namespace bp::obs::slo
