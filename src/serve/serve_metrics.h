// Serving metrics, re-based onto the observability registry.
//
// Every scored session updates counters; a metrics layer that takes a
// mutex per session would serialize the worker pool it is measuring.
// The instruments are obs::MetricsRegistry counters/histograms — the
// same cache-line-aligned striped relaxed-atomic design this class
// originally pioneered, now shared by every subsystem.  Each worker
// passes its index as the stripe hint (no cross-worker sharing on the
// hot path); `snapshot()` folds the stripes into one
// consistent-enough view for reporting.
//
// When no registry is supplied, ServeMetrics owns a private one, so
// engines in tests and benches stay isolated; supplying a registry
// (EngineConfig::registry) exports the serving counters through the
// same `render_prometheus()` / `render_json()` as drift, retraining,
// fault and training telemetry.  Two engines sharing one registry must
// use distinct metric prefixes, or they will share instruments.
//
// Consistency model of a MetricsSnapshot (pinned down after the
// non-atomic-gauge bug): the counter fields are striped-counter folds —
// each exact once writers are quiescent, but not a point-in-time cut
// across fields (a session may land in `scored` after `flagged` was
// read).  `queue_depth`, `model_version` and `stalled_workers` are
// *instantaneous gauge reads taken at snapshot time*, not atomic with
// the counter fold: a snapshot may show queue_depth=0 alongside a
// scored count that grew after the fold.  All three go through the
// registry's gauge type (stalled_workers as a stored gauge written by
// the watchdog; queue_depth and model_version as render-time callback
// gauges registered by the engine), so exported values follow the same
// semantics: fresh at read time, unsynchronized with counters.
//
// Latency is recorded as a fixed-bucket histogram over microseconds so
// p50/p95/p99 can be reported against the paper's 100 ms per-request
// budget (§3) without storing samples.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics_registry.h"

namespace bp::serve {

// §3's per-request budget: "around 100 milliseconds".
inline constexpr std::uint64_t kLatencyBudgetMicros = 100'000;

// Bucket upper bounds in microseconds: a coarse log ladder from 50 µs
// to 10 s.  The last bucket is open-ended.
inline constexpr std::array<std::uint64_t, 16> kLatencyBucketBoundsMicros = {
    50,      100,     250,     500,       1'000,     2'500,
    5'000,   10'000,  25'000,  50'000,    100'000,   250'000,
    500'000, 1'000'000, 5'000'000, 10'000'000};

std::size_t latency_bucket(std::uint64_t micros) noexcept;

// Bucket upper bounds for the per-drain batch-size histogram: powers of
// two up to 256 (max_batch is typically 32-64; the open-ended last
// bucket catches experiments beyond that).
inline constexpr std::array<std::uint64_t, 9> kBatchSizeBucketBounds = {
    1, 2, 4, 8, 16, 32, 64, 128, 256};

// Folded view of the engine's counters at one instant.
struct MetricsSnapshot {
  std::uint64_t scored = 0;    // responses delivered with a detection
  std::uint64_t flagged = 0;   // scored responses with detection.flagged
  std::uint64_t shed = 0;      // responses delivered as shed (DropOldest)
  std::uint64_t rejected = 0;  // submissions refused at admission (Reject)
  std::uint64_t batches = 0;   // worker batch iterations
  std::uint64_t cached = 0;    // scored responses answered by the
                               // verdict cache (subset of `scored`)
  std::uint64_t deadline_exceeded = 0;  // answered past their deadline
  std::uint64_t degraded = 0;  // answered by the UA-prior fallback scorer
  std::uint64_t stalled_workers = 0;  // watchdog gauge, at snapshot time
  std::uint64_t queue_depth = 0;  // instantaneous, at snapshot time
  std::uint64_t model_version = 0;  // latest published at snapshot time
  std::array<std::uint64_t, kLatencyBucketBoundsMicros.size() + 1>
      latency_histogram{};  // queue wait + scoring, per answered session
                            // (model-scored and degraded)
  std::array<std::uint64_t, kBatchSizeBucketBounds.size() + 1>
      batch_size_histogram{};  // requests drained per worker batch

  double flag_rate() const noexcept {
    const std::uint64_t answered = scored + degraded;
    return answered == 0 ? 0.0 : static_cast<double>(flagged) / answered;
  }
  // Histogram quantile (linear interpolation inside a bucket).  q is
  // clamped to [0, 1]; NaN is treated as 0.  Returns 0 when nothing
  // was scored.
  double latency_quantile_micros(double q) const noexcept;
  double p50_micros() const noexcept { return latency_quantile_micros(0.50); }
  double p95_micros() const noexcept { return latency_quantile_micros(0.95); }
  double p99_micros() const noexcept { return latency_quantile_micros(0.99); }
  // Inclusive: a p99 of exactly 100 ms is *within* the budget ("around
  // 100 milliseconds" is a target, not an open bound), matching the
  // `<=` semantics of the histogram's bucket bounds.
  bool within_budget() const noexcept {
    return p99_micros() <= static_cast<double>(kLatencyBudgetMicros);
  }

  // One-line human-readable summary for logs and examples.
  std::string summary() const;
};

class ServeMetrics {
 public:
  // When `registry` is null the instruments live in a private registry
  // owned by this object; otherwise they are registered into the given
  // registry under `prefix` and shared with its other exporters.
  explicit ServeMetrics(std::size_t n_workers,
                        obs::MetricsRegistry* registry = nullptr,
                        std::string_view prefix = "bp_serve");

  // Hot-path recording; `worker` is the stripe hint (a worker index or
  // an inline caller's lane, any value), so distinct threads record
  // concurrently without contention.  `exemplar_trace_id` (nonzero only for a request whose trace
  // is sampled) is remembered as the latency histogram's per-bucket
  // exemplar, linking the JSON exporter's buckets back to /tracez.
  void record_scored(std::size_t worker, bool flagged,
                     std::uint64_t latency_micros,
                     std::uint64_t exemplar_trace_id = 0) noexcept;
  // A verdict-cache hit: counts as scored (the caller got a full
  // detection) *and* bumps the cached counter.
  void record_cached(std::size_t stripe, bool flagged,
                     std::uint64_t latency_micros,
                     std::uint64_t exemplar_trace_id = 0) noexcept;
  void record_shed(std::size_t worker) noexcept;
  // One worker drain of `batch_size` requests (feeds the batch-size
  // histogram, so /statusz can show how full the SoA kernel runs).
  void record_batch(std::size_t worker, std::uint64_t batch_size) noexcept;
  void record_deadline_exceeded(std::size_t worker) noexcept;
  void record_degraded(std::size_t worker, bool flagged,
                       std::uint64_t latency_micros,
                       std::uint64_t exemplar_trace_id = 0) noexcept;

  // Admission-side event (any thread).
  void record_rejected() noexcept;

  // Watchdog gauge (single writer: the watchdog thread).
  void set_stalled_workers(std::uint64_t n) noexcept {
    stalled_workers_->set(static_cast<double>(n));
  }

  std::size_t n_workers() const noexcept { return n_workers_; }

  // The registry the instruments live in (the private one when none
  // was supplied) — what an exporter renders.
  obs::MetricsRegistry& registry() noexcept { return *registry_; }
  const obs::MetricsRegistry& registry() const noexcept { return *registry_; }

  // Fold all counter stripes.  Caller fills queue_depth /
  // model_version (engine-owned context; see the consistency model
  // above).
  MetricsSnapshot snapshot() const;

 private:
  std::size_t n_workers_;
  std::unique_ptr<obs::MetricsRegistry> owned_;  // set iff none supplied
  obs::MetricsRegistry* registry_;

  obs::Counter* scored_;
  obs::Counter* flagged_;
  obs::Counter* shed_;
  obs::Counter* rejected_;
  obs::Counter* batches_;
  obs::Counter* cached_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* degraded_;
  obs::Histogram* latency_;
  obs::Histogram* batch_size_;
  obs::Gauge* stalled_workers_;
};

}  // namespace bp::serve
