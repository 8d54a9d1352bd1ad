#include "obs/audit.h"

#include <cstdio>

namespace bp::obs {

AuditTrail::AuditTrail(AuditConfig config)
    : config_(config), sampler_(config.seed, config.unflagged_sample_rate) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.resize(config_.capacity);
}

void AuditTrail::record(const AuditRecord& record) {
  std::lock_guard lock(mutex_);
  if (size_ == ring_.size()) {
    overwritten_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++size_;
  }
  ring_[next_] = record;
  if (++next_ == ring_.size()) next_ = 0;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (record.flagged()) flagged_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<AuditRecord> AuditTrail::records() const {
  std::lock_guard lock(mutex_);
  std::vector<AuditRecord> out;
  out.reserve(size_);
  const std::size_t begin = size_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(begin + i) % ring_.size()]);
  }
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
        "\"centroid_distance2\": %.17g, \"flagged\": %s, "
        "\"degraded\": %s%s}\n",
        static_cast<unsigned long long>(r.session_id),
        static_cast<unsigned long long>(r.model_version),
        r.claimed.label().c_str(), r.predicted_cluster, r.expected_cluster,
        r.risk_factor, r.centroid_distance2, r.flagged() ? "true" : "false",
        r.degraded() ? "true" : "false", timing);
    out += line;
  }
  return out;
}

void AuditTrail::clear() {
  std::lock_guard lock(mutex_);
  next_ = 0;
  size_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
  flagged_.store(0, std::memory_order_relaxed);
  overwritten_.store(0, std::memory_order_relaxed);
}

}  // namespace bp::obs
