// Continuous in-process profiling plane.
//
// The metrics and trace planes say *that* the system is slow;
// this subsystem says *where the cycles go* — the attribution the
// ROADMAP north star ("as fast as the hardware allows") cannot be
// claimed without.  Three cooperating pieces, all dependency-free and
// always compiled, all opt-in at runtime:
//
//   * ThreadRegistry + ThreadHandle — worker threads (pool lanes,
//     scoring workers, HTTP handlers, the retrain supervisor) register
//     themselves under a logical name via an RAII handle.  The handle
//     captures the thread's stack bounds at registration so the signal
//     handler's frame walk has hard address-sanity rails.
//
//   * PROF_SCOPE("serve.kernel") — a thread-local stack of compile-time
//     string tags (nestable, ~2 relaxed atomic ops when idle) mapping
//     samples to logical stages (parse/route/queue/kernel/serialize/
//     train) even where symbols are inlined away.  Tags are what tests
//     assert on: symbol names vary with optimization level, tag names
//     do not.
//
//   * Profiler — the sampler.  Two triggers feed one lock-free
//     fixed-capacity sample table:
//       wall: a sampler thread on an injectable sleep walks the
//             registered threads at a configurable rate and reads each
//             thread's tag stack remotely (atomics only; TSan-clean) —
//             the deterministic, blocked-time-inclusive view;
//       cpu:  SIGPROF (per-thread kill from the sampler walk, plus an
//             ITIMER_PROF whose delivery is proportional to CPU burn)
//             makes the *interrupted thread* capture its own
//             frame-pointer call stack (`__builtin_frame_address`-style
//             walk, bounded depth, address-sanity guards, single-frame
//             fallback when frame pointers are unavailable).
//     Symbolization (`dladdr`, hex fallback) happens only at render
//     time; the capture path never allocates, locks, or symbolizes.
//
// Captures are windowed over a monotonic table: snapshot() folds the
// table, diff(before, after) isolates an interval, and the renderers
// emit collapsed-stack text (flamegraph.pl input) and a tag tree with
// self/total counts.  Renders sort deterministically, so tag-only
// profiles are byte-identical across runs and thread counts.
#pragma once

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bp::obs::prof {

inline constexpr std::size_t kMaxTagDepth = 8;
inline constexpr std::size_t kMaxFrames = 24;
inline constexpr std::size_t kMaxThreads = 256;

// Per-thread profiling context.  One thread_local instance per thread;
// the tag stack is written by the owning thread with relaxed stores and
// read remotely by the wall sampler (and locally by the SIGPROF
// handler), so every field the sampler touches is an atomic.
struct ThreadCtx {
  // Tag stack: depth is released after the tag slot is written, so a
  // remote reader acquiring depth always sees the tags it covers.
  // Depth may exceed kMaxTagDepth (overflow scopes still balance
  // push/pop); readers clamp.
  std::atomic<std::uint32_t> tag_depth{0};
  std::atomic<const char*> tags[kMaxTagDepth]{};
  // Non-null while registered via ThreadHandle; always a string
  // literal, so a stale remote read still dereferences safely.
  std::atomic<const char*> name{nullptr};
  std::uint32_t index = 0;
  // Stack bounds for the in-handler frame-pointer walk (from
  // pthread_getattr_np at registration); null = bounds unknown, the
  // handler falls back to the single interrupted-pc frame.
  void* stack_lo = nullptr;
  void* stack_hi = nullptr;
};

ThreadCtx& this_thread_ctx() noexcept;

// Nestable logical-stage tag.  Cheap enough to leave in hot paths
// unconditionally: push is two relaxed-ish stores, pop is one.
class TagScope {
 public:
  explicit TagScope(const char* tag) noexcept : ctx_(this_thread_ctx()) {
    const std::uint32_t depth =
        ctx_.tag_depth.load(std::memory_order_relaxed);
    if (depth < kMaxTagDepth) {
      ctx_.tags[depth].store(tag, std::memory_order_relaxed);
    }
    ctx_.tag_depth.store(depth + 1, std::memory_order_release);
  }
  ~TagScope() {
    ctx_.tag_depth.store(
        ctx_.tag_depth.load(std::memory_order_relaxed) - 1,
        std::memory_order_release);
  }
  TagScope(const TagScope&) = delete;
  TagScope& operator=(const TagScope&) = delete;

 private:
  ThreadCtx& ctx_;
};

#define BP_PROF_CONCAT_INNER(a, b) a##b
#define BP_PROF_CONCAT(a, b) BP_PROF_CONCAT_INNER(a, b)
// The "" forces a compile-time string literal — tag ids are interned by
// the literal's address and must never be a dangling runtime buffer.
#define PROF_SCOPE(tag)                                        \
  ::bp::obs::prof::TagScope BP_PROF_CONCAT(bp_prof_scope_, \
                                           __LINE__) { "" tag }

// Fixed-capacity table of live profiled threads.  Registration and the
// sampler walk share one mutex, so a pthread_kill is never aimed at a
// thread that has already unregistered (its handle destructor blocks on
// the same mutex until the walk finishes).
class ThreadRegistry {
 public:
  static ThreadRegistry& instance();

  // Register the calling thread.  Returns the slot index, or -1 when
  // the table is full (the thread simply goes unprofiled).
  int register_current(ThreadCtx* ctx);
  void unregister(int slot);

  // Invoke fn(ctx, pthread_t) for every registered thread, under the
  // registry mutex.
  void for_each(const std::function<void(ThreadCtx&, pthread_t)>& fn);

  std::size_t size() const;

 private:
  struct Slot {
    ThreadCtx* ctx = nullptr;
    pthread_t thread{};
  };
  mutable std::mutex mutex_;
  Slot slots_[kMaxThreads];
  std::size_t high_water_ = 0;
};

// RAII registration: construct on the thread's own stack at the top of
// its loop.  Fills the thread's ctx (name, index, stack bounds), then
// registers; unregisters and clears on destruction.
class ThreadHandle {
 public:
  explicit ThreadHandle(const char* name, std::uint32_t index = 0) noexcept;
  ~ThreadHandle();
  ThreadHandle(const ThreadHandle&) = delete;
  ThreadHandle& operator=(const ThreadHandle&) = delete;

  bool registered() const noexcept { return slot_ >= 0; }

 private:
  int slot_ = -1;
};

enum class SampleKind : std::uint8_t { kCpu = 0, kWall = 1 };

// One aggregated sample bucket: a (kind, thread name, tag path, call
// stack) key plus how many samples landed on it.
struct Sample {
  SampleKind kind = SampleKind::kWall;
  const char* thread_name = nullptr;  // never null after snapshot()
  std::uint32_t n_tags = 0;
  std::uint32_t n_frames = 0;
  const char* tags[kMaxTagDepth]{};
  void* frames[kMaxFrames]{};  // leaf first (interrupted pc at [0])
  std::uint64_t count = 0;
};

struct ProfileSnapshot {
  std::vector<Sample> samples;  // merged + deterministically sorted
  std::uint64_t dropped = 0;    // samples lost to table overflow
  std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const Sample& s : samples) n += s.count;
    return n;
  }
};

// The profiler that owns the signal plane arms ITIMER_PROF at this
// interval: the kernel delivers SIGPROF proportional to process CPU
// consumption, which is what attributes busy loops to their stage even
// when they are a small slice of wall time.
inline constexpr std::chrono::microseconds kCpuInterval{4'000};  // ~250 Hz

struct ProfilerConfig {
  // Wall sampler cadence (remote tag reads over registered threads).
  // Every wall tick also interrupts each registered thread
  // (pthread_kill SIGPROF) so it self-captures a call stack.
  std::chrono::microseconds wall_period{10'000};  // 100 Hz
  // Injectable sleep between wall ticks (tests drive ticks manually via
  // wall_tick() instead, or inject a counting sleep).  The default
  // sleeps on a condition variable so stop() is immediate.
  std::function<void(std::chrono::microseconds)> sleep;
};

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Start the sampler thread and the SIGPROF machinery.  Only one
  // Profiler can own the signal plane at a time; a second start() keeps
  // wall sampling but skips signals.
  void start(ProfilerConfig config = {});
  void stop();
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // One wall pass over the registered threads: remote tag samples for
  // all, plus a SIGPROF per thread when this profiler owns the signal
  // plane.  Public so tests can drive the sampler on a virtual clock.
  void wall_tick();

  // Record one explicit sample of the calling thread's current tag
  // stack (no frames).  The deterministic test path: a fixed work
  // decomposition calling sample_here() yields identical profiles at
  // any thread count.
  void sample_here(SampleKind kind = SampleKind::kWall) noexcept;

  // Fold the live table into a merged, deterministically sorted
  // snapshot.  Counts are monotonic, so interval captures are
  // diff(before, after).
  ProfileSnapshot snapshot() const;
  static ProfileSnapshot diff(const ProfileSnapshot& before,
                              const ProfileSnapshot& after);

  // flamegraph.pl collapsed-stack text:
  //   thread;(cpu|wall);tag;...;frame;... <count>\n
  // sorted lexicographically.  Frames symbolize via dladdr with a hex
  // fallback; pass symbolize=false for address-stable test output.
  static std::string render_collapsed(const ProfileSnapshot& snapshot,
                                      bool symbolize = true);
  // Tag tree with self/total counts, aggregated over tags only (thread
  // and kind ignored) — the byte-identical-across-thread-counts render.
  static std::string render_tag_tree_json(const ProfileSnapshot& snapshot);

  std::uint64_t wall_samples() const noexcept {
    return wall_samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const noexcept;

  // Called from the SIGPROF handler on the interrupted thread.
  // Async-signal-safe: atomics and local reads only.
  void record_signal_sample(void* ucontext) noexcept;

 private:
  struct TableSlot;

  void record(SampleKind kind, const char* thread_name,
              const char* const* tags, std::uint32_t n_tags,
              void* const* frames, std::uint32_t n_frames) noexcept;
  void sampler_loop();

  // Fixed power-of-two table; samples beyond capacity count as dropped.
  static constexpr std::size_t kTableSlots = 2048;
  static constexpr std::size_t kProbeLimit = 32;
  std::unique_ptr<TableSlot[]> table_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> wall_samples_{0};

  ProfilerConfig config_;
  std::atomic<bool> running_{false};
  bool owns_signals_ = false;
  std::thread sampler_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

// ---------------------------------------------------------------------
// Allocation counting (operator new interposition, no capture).
//
// The interposing operators live in the separate bp_prof_alloc object
// library so inclusion is an explicit per-target decision; they are
// compiled out entirely under ASan/TSan (the sanitizer allocators own
// that seam).  Counting is gated off by default even when linked.
struct AllocCounts {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

// True when the interposing operators are linked into this binary.
bool alloc_hook_linked() noexcept;
// Enable/disable counting (no-op observable effect unless linked).
void set_alloc_counting(bool enabled) noexcept;
bool alloc_counting() noexcept;
AllocCounts alloc_counts() noexcept;

namespace detail {
void mark_alloc_hook_linked() noexcept;
void note_allocation(std::size_t bytes) noexcept;
}  // namespace detail

}  // namespace bp::obs::prof
