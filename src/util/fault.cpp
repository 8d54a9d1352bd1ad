#include "util/fault.h"

#include <cstdlib>

#include "util/rng.h"
#include "util/strings.h"

namespace bp::util {

namespace {

// Deterministic decision for evaluation `index` of a point armed with
// `seed`: map a mixed 64-bit hash to [0, 1) and compare against the
// firing probability.  Pure, so any interleaving of callers sees the
// same decision for the same (seed, index) pair.
bool decide(std::uint64_t seed, std::uint64_t index, double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  const std::uint64_t h = mix64(seed ^ mix64(index + 1));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < probability;
}

}  // namespace

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

FaultRegistry::FaultRegistry() {
  if (const char* env = std::getenv("BP_FAULTS")) arm_from_spec(env);
}

void FaultRegistry::arm(std::string_view point, double probability,
                        std::uint64_t seed) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] = points_.insert_or_assign(
      std::string(point), Point{probability, seed, 0, 0});
  (void)it;
  if (inserted) armed_count_.fetch_add(1, std::memory_order_relaxed);
}

bool FaultRegistry::arm_from_spec(std::string_view spec) {
  for (std::string_view entry : split(spec, ',')) {
    entry = trim(entry);
    if (entry.empty()) continue;
    const auto fields = split(entry, ':');
    if (fields.empty() || fields.size() > 3) return false;
    const std::string_view name = trim(fields[0]);
    if (name.empty()) return false;
    double probability = 1.0;
    std::uint64_t seed = 0;
    if (fields.size() >= 2) {
      const auto p = parse_double(trim(fields[1]));
      if (!p || *p < 0.0 || *p > 1.0) return false;
      probability = *p;
    }
    if (fields.size() == 3) {
      const auto s = parse_int(trim(fields[2]));
      if (!s) return false;
      seed = static_cast<std::uint64_t>(*s);
    }
    arm(name, probability, seed);
  }
  return true;
}

void FaultRegistry::disarm(std::string_view point) {
  std::lock_guard lock(mutex_);
  const auto it = points_.find(point);
  if (it == points_.end()) return;
  points_.erase(it);
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultRegistry::disarm_all() {
  std::lock_guard lock(mutex_);
  armed_count_.fetch_sub(static_cast<int>(points_.size()),
                         std::memory_order_relaxed);
  points_.clear();
  trace_.clear();
}

bool FaultRegistry::armed(std::string_view point) const {
  std::lock_guard lock(mutex_);
  return points_.find(point) != points_.end();
}

bool FaultRegistry::should_fire(std::string_view point) {
  std::lock_guard lock(mutex_);
  const auto it = points_.find(point);
  if (it == points_.end()) return false;
  Point& p = it->second;
  const std::uint64_t index = p.evaluations++;
  if (!decide(p.seed, index, p.probability)) return false;
  ++p.fires;
  trace_.push_back(it->first + '#' + std::to_string(index));
  return true;
}

std::uint64_t FaultRegistry::evaluations(std::string_view point) const {
  std::lock_guard lock(mutex_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.evaluations;
}

std::uint64_t FaultRegistry::fires(std::string_view point) const {
  std::lock_guard lock(mutex_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

std::uint64_t FaultRegistry::total_fires() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, point] : points_) total += point.fires;
  return total;
}

std::vector<std::string> FaultRegistry::trace() const {
  std::lock_guard lock(mutex_);
  return trace_;
}

void FaultRegistry::reset_counters() {
  std::lock_guard lock(mutex_);
  for (auto& [name, point] : points_) {
    point.evaluations = 0;
    point.fires = 0;
  }
  trace_.clear();
}

}  // namespace bp::util
