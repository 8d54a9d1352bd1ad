// Per-site contention histograms: who are the threads actually
// fighting over?
//
// Metrics already count outcomes (scored, shed, hit, stale); this plane
// counts *waiting*: how often a thread blocked at a named
// synchronization site and for how long.  Sites are registered once
// (find-or-create by name, mutex-guarded) and recorded lock-free —
// record_block/record_event touch only relaxed atomics, cheap enough
// to leave in hot paths permanently.
//
// The serving tier instruments four sites out of the box:
//   serve.queue.push_block   producer blocked on a full BoundedQueue
//                            (every ring slot holds a queued request)
//   serve.queue.pop_wait     worker parked on an empty BoundedQueue
//   serve.registry.publish_lock  publisher waited for the swap mutex
//   serve.cache.insert_cas   VerdictCache insert lost the slot CAS
//
// Rendered by /contentionz as one text block per site: event counts
// plus a block-time histogram in nanoseconds, in the process-wide
// log-linear layout (obs/histogram_layout.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/histogram_layout.h"

namespace bp::obs::prof {

class ContentionSite {
 public:
  // A blocking wait that lasted `ns` nanoseconds.
  void record_block(std::uint64_t ns) noexcept {
    events_.fetch_add(1, std::memory_order_relaxed);
    blocks_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    buckets_[hist::bucket(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  // A contention event with no meaningful duration (a lost CAS).
  void record_event() noexcept {
    events_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t events() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }
  std::uint64_t blocks() const noexcept {
    return blocks_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  // Blocks whose duration in ns falls in obs::hist bucket `i`.
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const char* name() const noexcept { return name_; }

 private:
  friend class ContentionRegistry;
  const char* name_ = nullptr;
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> blocks_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> buckets_[hist::kBuckets]{};
};

class ContentionRegistry {
 public:
  static ContentionRegistry& instance();

  // Find-or-create by name content.  Call once per call site and keep
  // the pointer (the lookup takes a mutex; recording does not).  Names
  // must be string literals or otherwise immortal.  When the fixed
  // table is full every further name maps to the shared overflow site.
  ContentionSite& site(const char* name);

  std::size_t size() const;
  std::string render() const;

 private:
  static constexpr std::size_t kMaxSites = 64;
  mutable std::mutex mutex_;
  ContentionSite sites_[kMaxSites];
  ContentionSite overflow_;
  std::size_t n_sites_ = 0;
};

}  // namespace bp::obs::prof
