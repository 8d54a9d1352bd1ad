#include "serve/serve_metrics.h"

#include <cstdio>

namespace bp::serve {

std::string MetricsSnapshot::summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "scored=%llu cached=%llu flagged=%llu (%.2f%%) "
      "rejected=%llu depth=%llu "
      "model=v%llu p50=%.0fus p95=%.0fus p99=%.0fus%s",
      static_cast<unsigned long long>(scored),
      static_cast<unsigned long long>(cached),
      static_cast<unsigned long long>(flagged), 100.0 * flag_rate(),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(queue_depth),
      static_cast<unsigned long long>(model_version), p50_micros(),
      p95_micros(), p99_micros(),
      within_budget() ? "" : " [OVER 100ms BUDGET]");
  return buf;
}

ServeMetrics::ServeMetrics(obs::MetricsRegistry* registry,
                           std::string_view prefix) {
  if (registry == nullptr) {
    owned_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_.get();
  }
  registry_ = registry;
  const std::string p(prefix);
  scored_ = &registry_->counter(p + "_scored_total",
                                "responses delivered with a detection");
  flagged_ = &registry_->counter(p + "_flagged_total",
                                 "scored responses with detection.flagged");
  rejected_ = &registry_->counter(p + "_rejected_total",
                                  "submissions refused at admission");
  batches_ = &registry_->counter(p + "_batches_total",
                                 "worker batch iterations");
  cached_ = &registry_->counter(
      p + "_cached_total", "scored responses answered by the verdict cache");
  latency_ = &registry_->histogram(
      p + "_latency_micros",
      "queue wait + scoring per answered session, microseconds");
  batch_size_ = &registry_->histogram(p + "_batch_size",
                                      "requests drained per worker batch");
}

void ServeMetrics::record_scored(std::size_t worker, bool flagged,
                                 std::uint64_t latency_micros,
                                 std::uint64_t exemplar_trace_id) noexcept {
  scored_->increment(worker);
  if (flagged) flagged_->increment(worker);
  latency_->observe_exemplar(latency_micros, exemplar_trace_id, worker);
}

void ServeMetrics::record_cached(std::size_t stripe, bool flagged,
                                 std::uint64_t latency_micros,
                                 std::uint64_t exemplar_trace_id) noexcept {
  scored_->increment(stripe);
  cached_->increment(stripe);
  if (flagged) flagged_->increment(stripe);
  latency_->observe_exemplar(latency_micros, exemplar_trace_id, stripe);
}

void ServeMetrics::record_batch(std::size_t worker,
                                std::uint64_t batch_size) noexcept {
  batches_->increment(worker);
  batch_size_->observe(batch_size, worker);
}

void ServeMetrics::record_rejected() noexcept { rejected_->increment(); }

MetricsSnapshot ServeMetrics::snapshot() const {
  MetricsSnapshot out;
  out.scored = scored_->value();
  out.flagged = flagged_->value();
  out.rejected = rejected_->value();
  out.batches = batches_->value();
  out.cached = cached_->value();
  out.latency_histogram = latency_->bucket_counts();
  out.batch_size_histogram = batch_size_->bucket_counts();
  return out;
}

}  // namespace bp::serve
