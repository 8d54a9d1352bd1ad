#include "obs/prof/contention.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace bp::obs::prof {

ContentionRegistry& ContentionRegistry::instance() {
  static ContentionRegistry registry;
  return registry;
}

ContentionSite& ContentionRegistry::site(const char* name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < n_sites_; ++i) {
    if (std::strcmp(sites_[i].name_, name) == 0) return sites_[i];
  }
  if (n_sites_ < kMaxSites) {
    sites_[n_sites_].name_ = name;
    return sites_[n_sites_++];
  }
  if (overflow_.name_ == nullptr) overflow_.name_ = "(overflow)";
  return overflow_;
}

std::size_t ContentionRegistry::size() const {
  std::lock_guard lock(mutex_);
  return n_sites_;
}

std::string ContentionRegistry::render() const {
  // Collect site pointers under the lock, render outside it: sites are
  // never removed and counters are atomics, so the render itself needs
  // no further coordination.
  std::vector<const ContentionSite*> sites;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < n_sites_; ++i) sites.push_back(&sites_[i]);
    if (overflow_.name_ != nullptr) sites.push_back(&overflow_);
  }
  std::sort(sites.begin(), sites.end(),
            [](const ContentionSite* a, const ContentionSite* b) {
              return std::strcmp(a->name_, b->name_) < 0;
            });
  std::string out = "contention sites: " + std::to_string(sites.size()) + "\n";
  for (const ContentionSite* site : sites) {
    const std::uint64_t blocks = site->blocks();
    out += "\nsite ";
    out += site->name();
    out += "\n  events: " + std::to_string(site->events()) +
           "\n  blocks: " + std::to_string(blocks) +
           "\n  total_block_us: " + std::to_string(site->total_ns() / 1000) +
           "\n";
    for (std::size_t b = 0; b < hist::kBuckets; ++b) {
      const std::uint64_t count = site->bucket(b);
      if (count == 0) continue;
      const std::string label =
          b + 1 < hist::kBuckets
              ? "<=" + std::to_string(hist::upper(b)) + "ns"
              : ">=" + std::to_string(hist::lower(b)) + "ns";
      out += "  " + label + ": " + std::to_string(count) + "\n";
    }
  }
  return out;
}

}  // namespace bp::obs::prof
