#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace bp::obs {

TraceSink::TraceSink(TraceSinkConfig config)
    : config_(config),
      sampler_(config.seed, config.sample_rate),
      ring_(config.capacity) {
  config_.capacity = ring_.capacity();
}

void TraceSink::record(const TraceEvent& event) {
  if (!sampled(event.trace_id)) return;
  record_forced(event);
}

void TraceSink::record_forced(const TraceEvent& event) {
  std::lock_guard lock(mutex_);
  if (ring_.push(event)) overwritten_.fetch_add(1, std::memory_order_relaxed);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceSink::events(std::uint64_t trace_filter,
                                          std::size_t limit) const {
  std::vector<TraceEvent> kept;
  {
    std::lock_guard lock(mutex_);
    kept.reserve(ring_.size());
    // Oldest-first ring walk, so "the most recent `limit` events" is a
    // suffix of this vector.
    ring_.for_each([&](const TraceEvent& e) {
      if (trace_filter == 0 || e.trace_id == trace_filter) kept.push_back(e);
    });
  }
  if (limit != 0 && kept.size() > limit) {
    kept.erase(kept.begin(), kept.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::sort(kept.begin(), kept.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.span_id < b.span_id;
            });
  return kept;
}

std::string TraceSink::render(bool include_timing, std::uint64_t trace_filter,
                              std::size_t limit) const {
  const std::vector<TraceEvent> kept = events(trace_filter, limit);
  // to_chars, not snprintf: a full ring is 8192 lines per scrape, and
  // the render's CPU lands on whatever core the scraped process serves.
  std::string out;
  out.reserve(kept.size() * 96);
  char digits[24];
  const auto field = [&](std::string_view key, auto value) {
    out += key;
    out.append(digits, std::to_chars(digits, digits + 24, value).ptr);
  };
  for (const TraceEvent& e : kept) {
    field("trace=", e.trace_id);
    field(" span=", e.span_id);
    field(" parent=", e.parent_id);
    out += " name=";
    out += e.name;
    if (include_timing) {
      field(" start=", e.start_us);
      field(" end=", e.end_us);
      field(" dur_us=", e.end_us - e.start_us);
    }
    out += '\n';
  }
  return out;
}

void TraceSink::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  recorded_.store(0, std::memory_order_relaxed);
  overwritten_.store(0, std::memory_order_relaxed);
}

}  // namespace bp::obs
