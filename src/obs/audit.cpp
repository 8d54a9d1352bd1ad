#include "obs/audit.h"

#include <cstdio>

namespace bp::obs {

AuditTrail::AuditTrail(AuditConfig config)
    : config_(config),
      sampler_(config.seed, config.unflagged_sample_rate),
      ring_(config.capacity) {
  config_.capacity = ring_.capacity();
}

void AuditTrail::record(const AuditRecord& record) {
  std::lock_guard lock(mutex_);
  if (ring_.push(record)) overwritten_.fetch_add(1, std::memory_order_relaxed);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (record.flagged()) flagged_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<AuditRecord> AuditTrail::records() const {
  std::lock_guard lock(mutex_);
  std::vector<AuditRecord> out;
  out.reserve(ring_.size());
  ring_.for_each([&](const AuditRecord& r) { out.push_back(r); });
  return out;
}

std::string AuditTrail::render_jsonl(bool include_timing,
                                     std::size_t last_n) const {
  std::string out;
  std::vector<AuditRecord> all = records();
  if (last_n < all.size()) all.erase(all.begin(), all.end() - last_n);
  for (const AuditRecord& r : all) {
    char line[384];
    char timing[48] = "";
    if (include_timing) {
      std::snprintf(timing, sizeof(timing), ", \"recorded_at_us\": %lld",
                    static_cast<long long>(r.recorded_at_us));
    }
    std::snprintf(
        line, sizeof(line),
        "{\"session_id\": %llu, \"model_version\": %llu, "
        "\"claimed\": \"%s\", \"predicted_cluster\": %u, "
        "\"expected_cluster\": %d, \"risk_factor\": %d, "
        "\"centroid_distance2\": %.17g, \"flagged\": %s%s}\n",
        static_cast<unsigned long long>(r.session_id),
        static_cast<unsigned long long>(r.model_version),
        r.claimed.label().c_str(), r.predicted_cluster, r.expected_cluster,
        r.risk_factor, r.centroid_distance2, r.flagged() ? "true" : "false",
        timing);
    out += line;
  }
  return out;
}

void AuditTrail::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  recorded_.store(0, std::memory_order_relaxed);
  flagged_.store(0, std::memory_order_relaxed);
  overwritten_.store(0, std::memory_order_relaxed);
}

}  // namespace bp::obs
