#include "obs/slo/time_series.h"

#include <algorithm>

namespace bp::obs::slo {

TimeSeriesWindow::TimeSeriesWindow(const MetricsRegistry& registry,
                                   std::size_t capacity)
    : registry_(registry), capacity_(std::max<std::size_t>(capacity, 2)) {}

void TimeSeriesWindow::track_series(std::string name, SourceKind kind,
                                    std::vector<std::string> metrics,
                                    std::uint64_t threshold) {
  Series series{kind, std::move(metrics), threshold, Ring<Point>(capacity_)};
  std::lock_guard lock(mutex_);
  series_.insert_or_assign(std::move(name), std::move(series));
}

void TimeSeriesWindow::track(std::string series, std::string metric) {
  track_series(std::move(series), SourceKind::kValue, {std::move(metric)}, 0);
}

void TimeSeriesWindow::track_sum(std::string series,
                                 std::vector<std::string> metrics) {
  track_series(std::move(series), SourceKind::kSum, std::move(metrics), 0);
}

void TimeSeriesWindow::track_histogram_over(std::string series,
                                            std::string metric,
                                            std::uint64_t threshold) {
  track_series(std::move(series), SourceKind::kHistogramOver,
               {std::move(metric)}, threshold);
}

double TimeSeriesWindow::read_source(const Series& series) const {
  switch (series.kind) {
    case SourceKind::kValue:
      return registry_.read_value(series.metrics.front()).value_or(0.0);
    case SourceKind::kSum: {
      double total = 0.0;
      for (const std::string& metric : series.metrics) {
        total += registry_.read_value(metric).value_or(0.0);
      }
      return total;
    }
    case SourceKind::kHistogramOver:
      return registry_
          .read_histogram_over(series.metrics.front(), series.threshold)
          .value_or(0.0);
  }
  return 0.0;
}

void TimeSeriesWindow::sample(std::int64_t now_ms) {
  std::lock_guard lock(mutex_);
  for (auto& [name, series] : series_) {
    series.ring.push(Point{now_ms, read_source(series)});
  }
  last_sample_ms_ = now_ms;
  ++samples_;
}

bool TimeSeriesWindow::span(const Series& series, std::int64_t lookback_ms,
                            Point* oldest, Point* newest) const {
  if (series.ring.empty()) return false;
  *newest = series.ring.newest();
  const std::int64_t horizon = newest->at_ms - lookback_ms;
  *oldest = *newest;
  for (std::size_t i = 0; i < series.ring.size(); ++i) {
    if (series.ring[i].at_ms >= horizon) {
      *oldest = series.ring[i];
      break;
    }
  }
  return true;
}

double TimeSeriesWindow::latest(std::string_view series) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(series);
  if (it == series_.end()) return 0.0;
  Point oldest, newest;
  if (!span(it->second, 0, &oldest, &newest)) return 0.0;
  return newest.value;
}

double TimeSeriesWindow::delta(std::string_view series,
                               std::int64_t lookback_ms) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(series);
  if (it == series_.end()) return 0.0;
  Point oldest, newest;
  if (!span(it->second, lookback_ms, &oldest, &newest)) return 0.0;
  return std::max(0.0, newest.value - oldest.value);
}

double TimeSeriesWindow::rate_per_second(std::string_view series,
                                         std::int64_t lookback_ms) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(series);
  if (it == series_.end()) return 0.0;
  Point oldest, newest;
  if (!span(it->second, lookback_ms, &oldest, &newest)) return 0.0;
  const std::int64_t elapsed_ms = newest.at_ms - oldest.at_ms;
  if (elapsed_ms <= 0) return 0.0;
  return std::max(0.0, newest.value - oldest.value) /
         (static_cast<double>(elapsed_ms) / 1000.0);
}

std::int64_t TimeSeriesWindow::last_sample_ms() const {
  std::lock_guard lock(mutex_);
  return last_sample_ms_;
}

std::uint64_t TimeSeriesWindow::samples() const {
  std::lock_guard lock(mutex_);
  return samples_;
}

}  // namespace bp::obs::slo
