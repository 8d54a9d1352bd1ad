// Process-wide metrics registry: the one place every subsystem's
// telemetry lands.
//
// The serving tier, the drift module, the retrain supervisor, the fault
// registry and the training pipeline each used to expose bespoke status
// structs with no common export path.  The registry unifies them behind
// three instrument types — Counter, Gauge, Histogram — that any layer
// registers by name and any exporter renders in one call
// (`render_prometheus()` / `render_json()`).
//
// Hot-path design (same as the original ServeMetrics, which is now
// re-based onto these instruments): counters and histograms are sharded
// over cache-line-aligned stripes of relaxed atomics.  A recording
// thread passes a stripe hint (its worker index); distinct workers
// touch distinct cache lines, so a metrics layer never serializes the
// pool it is measuring.  Reads fold the stripes into one
// consistent-enough view — see "Consistency model" below.
//
// Consistency model:
//   * Counter/Histogram reads fold per-stripe relaxed atomics.  The
//     fold is not a point-in-time snapshot across *instruments*: two
//     counters read back-to-back may each be internally exact yet
//     mutually torn (a concurrent event may land between the reads).
//     Every individual value is exact once writers are quiescent.
//   * Gauges are single instantaneous values (last set wins).  Callback
//     gauges are evaluated at render time, so an exported gauge is
//     always as fresh as the render, never staler.
//
// Instrument references returned by counter()/gauge()/histogram() stay
// valid for the registry's lifetime (instruments are never destroyed;
// remove() applies to callback gauges only, whose referents may die
// before the registry does).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram_layout.h"

namespace bp::obs {

// Monotonically increasing event count, sharded to keep concurrent
// writers off each other's cache lines.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::uint64_t n, std::size_t stripe_hint = 0) noexcept {
    stripes_[stripe_hint & (kStripes - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void increment(std::size_t stripe_hint = 0) noexcept { add(1, stripe_hint); }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

// A single instantaneous value; last set wins.  Writers need no stripe:
// gauges are low-rate (supervisors, render-time callbacks).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept {
    // Low-rate CAS loop; gauges are not hot-path instruments.
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

// Histogram over unsigned sample values (microseconds, nanoseconds,
// counts, ...) in the process-wide log-linear layout of
// obs/histogram_layout.h: every histogram has the same hist::kBuckets
// buckets, bucket b counting samples in [hist::lower(b), hist::upper(b)].
class Histogram {
 public:
  using Counts = std::array<std::uint64_t, hist::kBuckets>;

  void observe(std::uint64_t value, std::size_t stripe_hint = 0) noexcept {
    Stripe& stripe = stripes_[stripe_hint & (Counter::kStripes - 1)];
    stripe.buckets[hist::bucket(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
    stripe.sum.fetch_add(value, std::memory_order_relaxed);
  }

  // observe() plus an exemplar: remembers `trace_id` as the last
  // sampled trace that landed in this sample's bucket (last write wins;
  // trace_id 0 = no exemplar, slot untouched).  The JSON exporter
  // surfaces these so an operator can jump from a p99 bucket straight
  // to /tracez?trace=<id>.
  void observe_exemplar(std::uint64_t value, std::uint64_t trace_id,
                        std::size_t stripe_hint = 0) noexcept {
    observe(value, stripe_hint);
    if (trace_id != 0) {
      exemplars_[hist::bucket(value)].store(trace_id,
                                            std::memory_order_relaxed);
    }
  }

  // Folded per-bucket counts.
  Counts bucket_counts() const noexcept;
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  // Per-bucket last-exemplar trace ids (0 = none).
  Counts exemplar_trace_ids() const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, hist::kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };

  std::array<Stripe, Counter::kStripes> stripes_{};
  // Unstriped: exemplars are last-write-wins markers, not counts.
  std::array<std::atomic<std::uint64_t>, hist::kBuckets> exemplars_{};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry most subsystems register into by default.
  static MetricsRegistry& global();

  // Find-or-create by name.  Re-registering an existing name of the
  // same kind returns the same instrument (so e.g. two components can
  // share a counter); registering an existing name as a different kind
  // is a programming error and returns a dedicated scrap instrument
  // that is never exported.
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::string_view help = "");

  // A gauge whose value is computed at render time (always fresh).
  // Re-registering replaces the callback.  The callback must stay
  // callable until remove()d — remove it before its referent dies.
  void gauge_callback(std::string_view name, std::function<double()> fn,
                      std::string_view help = "");

  // Remove an instrument by name (primarily for callback gauges whose
  // referent is being destroyed).  Invalidates references to it.
  void remove(std::string_view name);

  // Read one instrument's current value by name: a counter's fold, a
  // stored gauge's last set, a callback gauge's evaluation, or a
  // histogram's cumulative sample count.  nullopt for unknown names.
  std::optional<double> read_value(std::string_view name) const;

  // Prometheus text exposition format, instruments in name order.
  std::string render_prometheus() const;

  // One JSON object: {"counters": {...}, "gauges": {...},
  // "histograms": {name: {"bounds": [...], "counts": [...], "sum": n,
  // "count": n[, "exemplars": [...]]}}}.  "exemplars" (per-bucket last
  // sampled trace id, 0 = none) appears only when a histogram has
  // recorded at least one via observe_exemplar.  Name-ordered, hence
  // deterministic given quiescent writers.
  std::string render_json() const;

  std::size_t size() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kCallback };

  struct Instrument {
    Kind kind = Kind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
  };
  struct Row;
  std::vector<Row> snapshot() const;

  mutable std::mutex mutex_;
  std::map<std::string, Instrument, std::less<>> instruments_;
};

}  // namespace bp::obs
