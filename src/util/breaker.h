// The one circuit breaker and the one retry backoff, shared by
// net::ScoreClient and serve::RetrainSupervisor.
//
// Breaker: `threshold` consecutive failures open it.  While open, the
// next `cooldown` admits short-circuit; then exactly one admit is
// granted as the half-open probe, and every admit while it is out
// short-circuits.  A success closes the breaker; a failure once open
// re-arms a fresh cooldown; a probe handed back unused leaves it
// half-open.  Unsynchronized: each caller guards it with its own lock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace bp::util {

class Breaker {
 public:
  Breaker(int threshold, int cooldown) noexcept
      : threshold_(threshold), cooldown_(cooldown) {}

  bool admit() noexcept {
    if (!open_) return true;
    if (cooldown_remaining_ > 0) {
      --cooldown_remaining_;
      return false;
    }
    if (probe_out_) return false;
    probe_out_ = true;
    return true;
  }

  void on_success() noexcept { *this = Breaker(threshold_, cooldown_); }

  // True on the closed -> open transition only.
  bool on_failure() noexcept {
    if (++failures_ < threshold_) return false;
    const bool opened = !open_;
    open_ = true;
    probe_out_ = false;
    cooldown_remaining_ = cooldown_;
    return opened;
  }

  void return_probe() noexcept { probe_out_ = false; }
  void reset() noexcept { on_success(); }

  // True from the opening failure until a success, half-open included.
  bool open() const noexcept { return open_; }
  int consecutive_failures() const noexcept { return failures_; }

 private:
  int threshold_;
  int cooldown_;
  int failures_ = 0;
  int cooldown_remaining_ = 0;
  bool open_ = false;
  bool probe_out_ = false;
};

// The wait before retry `retry` (0-based): min(initial * 2^retry, max)
// scaled by 0.5 + 0.5 * `unit` for a caller-drawn unit in [0, 1),
// truncated to ms.  ldexp scales exactly and overflows to +inf, so the
// cap holds for any retry count.
inline std::chrono::milliseconds backoff(std::chrono::milliseconds initial,
                                         std::chrono::milliseconds max,
                                         int retry, double unit) noexcept {
  const double base =
      std::min(std::ldexp(static_cast<double>(initial.count()), retry),
               static_cast<double>(max.count()));
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(base * (0.5 + 0.5 * unit)));
}

}  // namespace bp::util
