// Bounded MPMC queue with explicit overflow policies.
//
// The serving tier (§3's per-request budget at FinOrg scale) must keep
// latency bounded when offered load exceeds scoring capacity.  An
// unbounded queue converts overload into unbounded latency; a bounded
// queue forces an explicit decision at the admission edge:
//
//   kBlock  — producers wait for space (lossless; backpressure is
//             pushed upstream to the caller's accept loop);
//   kReject — refuse the new request immediately (caller falls back to
//             its UA-only risk path and retries later).
//
// Either way no item is silently discarded: push() enqueues it or
// reports why it did not.
//
// Storage is a ring of `capacity` slots built once, and items never
// leave it by value: a producer writes into the tail slot in place
// (copy-assignment, so a slot's retained buffers are reused), and a
// consumer swaps ready slots with the elements of the batch vector it
// reuses, handing its previous batch's buffers back to the ring.  Once
// every slot has taken one push and every consumer one batch, the
// queue hop allocates nothing (for items no larger than those before).
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/prof/contention.h"

namespace bp::serve {

enum class OverflowPolicy {
  kBlock,
  kReject,
};

enum class PushResult {
  kAccepted,  // item enqueued
  kRejected,  // queue full under kReject; item not enqueued
  kClosed,    // queue closed; item not enqueued
};

template <typename T>
class BoundedQueue {
 public:
  BoundedQueue(std::size_t capacity, OverflowPolicy policy)
      : slots_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  // Push under the configured policy: `fill(slot)` writes the item into
  // the tail slot in place, under the queue's lock, so it must be short
  // and must overwrite every field (the slot holds a stale item).  If
  // it throws, nothing is enqueued.
  template <typename Fill>
  PushResult push_with(Fill&& fill) {
    std::unique_lock lock(mutex_);
    if (closed_) return PushResult::kClosed;
    if (count_ == slots_.size()) {
      if (policy_ == OverflowPolicy::kReject) return PushResult::kRejected;
      ++waiting_producers_;
      const auto wait_begin = push_block_site_ != nullptr
                                  ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
      not_full_.wait(lock,
                     [&] { return closed_ || count_ < slots_.size(); });
      --waiting_producers_;
      if (push_block_site_ != nullptr) {
        push_block_site_->record_block(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_begin)
                .count()));
      }
      if (closed_) return PushResult::kClosed;
    }
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    fill(slots_[tail]);
    ++count_;
    // Waiter-counted wakeups: under load the consumers are almost never
    // parked (they drain in batches), yet every push used to issue a
    // futex syscall anyway — per-item kernel round-trips that dominated
    // the queue's cost once producers outnumbered cores.  The counters
    // are mutex-protected, so a consumer that is *about to* wait is
    // either counted (gets the notify) or hasn't released the lock yet
    // (will see the item before waiting).
    if (waiting_consumers_ > 0) not_empty_.notify_one();
    return PushResult::kAccepted;
  }

  // Copy-assigns `item` into the tail slot.
  PushResult push(const T& item) {
    return push_with([&](T& slot) { slot = item; });
  }

  // Blocks until at least one item is ready (or the queue closes), then
  // swaps up to `max_batch` of them (at least 1) with out[0, n) and
  // returns n.  `out` grows once, on its first batch, and never
  // shrinks: its elements past n hold buffers, not items.  Returns 0
  // only when the queue is closed and drained.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_batch) {
    const std::size_t limit =
        std::min(std::max<std::size_t>(max_batch, 1), slots_.size());
    std::unique_lock lock(mutex_);
    if (closed_ || count_ > 0) {
      // Fast path: skip the wait bookkeeping entirely when work is
      // already queued (the steady state under load).
    } else {
      ++waiting_consumers_;
      const auto wait_begin = pop_wait_site_ != nullptr
                                  ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
      not_empty_.wait(lock, [&] { return closed_ || count_ > 0; });
      --waiting_consumers_;
      if (pop_wait_site_ != nullptr) {
        pop_wait_site_->record_block(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_begin)
                .count()));
      }
    }
    const std::size_t n = std::min(limit, count_);  // 0: closed and drained
    // Grown once, to copies of the head item: an element swapped into
    // the ring must carry a buffer like the one it replaces, or the
    // next push into that slot would allocate.  (Not before the wait,
    // so a consumer that never gets work allocates nothing.)
    if (n > 0 && out.size() < limit) out.resize(limit, slots_[head_]);
    for (std::size_t i = 0; i < n; ++i) {
      using std::swap;
      swap(out[i], slots_[head_]);
      if (++head_ == slots_.size()) head_ = 0;
    }
    count_ -= n;
    if (n > 0 && waiting_producers_ > 0) not_full_.notify_all();
    return n;
  }

  // Wakes all waiters; subsequent pushes fail with kClosed.  Items
  // already queued remain poppable until drained.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return count_;
  }

  std::size_t capacity() const noexcept { return slots_.size(); }

  // Attribute blocking waits to named contention sites (/contentionz).
  // Null (the default) skips the clock reads entirely.  Call before the
  // queue goes concurrent — typically right after construction.
  void set_contention_sites(obs::prof::ContentionSite* push_block,
                            obs::prof::ContentionSite* pop_wait) noexcept {
    push_block_site_ = push_block;
    pop_wait_site_ = pop_wait;
  }

 private:
  // The ring: items occupy slots_[head_, head_ + count_) modulo size.
  // Sized once; never reallocated.
  std::vector<T> slots_;
  const OverflowPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::size_t head_ = 0;   // guarded by mutex_
  std::size_t count_ = 0;  // guarded by mutex_
  bool closed_ = false;
  // Parked-thread counts (guarded by mutex_) so push/pop skip the
  // condition-variable syscall when nobody is waiting.
  std::size_t waiting_producers_ = 0;
  std::size_t waiting_consumers_ = 0;
  obs::prof::ContentionSite* push_block_site_ = nullptr;
  obs::prof::ContentionSite* pop_wait_site_ = nullptr;
};

}  // namespace bp::serve
