// Windowed view of a MetricsRegistry: the bridge between cumulative
// counters and the *rates* an operator (and the SLO engine) actually
// alarms on.
//
// A MetricsRegistry only ever answers "how many so far"; burn-rate and
// error-rate alerting need "how many per second over the last five
// minutes".  TimeSeriesWindow periodically snapshots a set of named
// registry instruments into fixed-size per-series rings and derives
// deltas and rates over configurable lookbacks.
//
// The clock is injectable by construction: `sample(now_ms)` takes the
// timestamp instead of reading one, so a test (or the deterministic
// SLO replay) drives time explicitly — every derived value is a pure
// function of the (tick, snapshot) sequence, never of wall time.
// Production callers pass a steady-clock reading on a sampler cadence.
//
// Three series kinds:
//   * track()                — raw instrument value (counter fold,
//     gauge level, callback evaluation, histogram count);
//   * track_sum()            — sum of several instruments as one
//     series (e.g. shed + rejected = "bad responses");
//   * track_histogram_over() — count of histogram samples above a
//     threshold (e.g. requests over the 100 ms latency budget), so a
//     latency SLO reduces to a plain bad/total counter pair.
//
// Thread-safety: sample() and the readers take one mutex; the sampler
// runs on its own low-rate cadence, so this is nowhere near a hot path.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/ring.h"

namespace bp::obs::slo {

class TimeSeriesWindow {
 public:
  // `capacity` is the per-series ring size: how many samples of
  // history each series retains (oldest evicted first).  With a 1 s
  // sampler cadence the default holds one hour.
  explicit TimeSeriesWindow(const MetricsRegistry& registry,
                            std::size_t capacity = 3600);

  TimeSeriesWindow(const TimeSeriesWindow&) = delete;
  TimeSeriesWindow& operator=(const TimeSeriesWindow&) = delete;

  // Register series before sampling.  Re-tracking an existing series
  // name replaces its source and clears its history.  An instrument
  // that does not exist (yet) in the registry reads as 0 — a counter
  // nobody has touched.
  void track(std::string series, std::string metric);
  void track_sum(std::string series, std::vector<std::string> metrics);
  void track_histogram_over(std::string series, std::string metric,
                            std::uint64_t threshold);

  // Snapshot every tracked series at `now_ms` (injectable clock
  // ticks; callers must pass non-decreasing timestamps).
  void sample(std::int64_t now_ms);

  // Most recently sampled value; 0 before the first sample or for an
  // unknown series.
  double latest(std::string_view series) const;

  // Increase over the lookback: newest value minus the value at the
  // oldest retained sample within [newest_ms - lookback_ms, newest_ms].
  // Clamped at 0 (counters are monotonic; a negative delta means the
  // source was reset).  0 with fewer than two samples.
  double delta(std::string_view series, std::int64_t lookback_ms) const;

  // delta() divided by the actual elapsed seconds between the two
  // samples it compared — so a partially-filled window reports the
  // rate over the history it has, not a diluted full-window average.
  double rate_per_second(std::string_view series,
                         std::int64_t lookback_ms) const;

  // Timestamp of the most recent sample() (0 before the first), and
  // how many sample() calls have run.
  std::int64_t last_sample_ms() const;
  std::uint64_t samples() const;

 private:
  struct Point {
    std::int64_t at_ms = 0;
    double value = 0.0;
  };

  enum class SourceKind : std::uint8_t { kValue, kSum, kHistogramOver };

  struct Series {
    SourceKind kind = SourceKind::kValue;
    std::vector<std::string> metrics;  // one entry except for kSum
    std::uint64_t threshold = 0;       // kHistogramOver only
    Ring<Point> ring;                  // capacity_ points, allocated at track
  };

  // Registers (or replaces) `name` with an empty ring of capacity_.
  void track_series(std::string name, SourceKind kind,
                    std::vector<std::string> metrics,
                    std::uint64_t threshold);

  double read_source(const Series& series) const;
  // Newest point and the oldest retained point within the lookback;
  // false when the series has no samples.
  bool span(const Series& series, std::int64_t lookback_ms, Point* oldest,
            Point* newest) const;

  const MetricsRegistry& registry_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, Series, std::less<>> series_;
  std::int64_t last_sample_ms_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace bp::obs::slo
