#include "obs/prof/prof.h"

#include <dlfcn.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/rng.h"

namespace bp::obs::prof {

namespace {

// The profiler that owns the SIGPROF plane (handler + itimer +
// pthread_kill walks).  Signals are process-global, so at most one.
std::atomic<Profiler*> g_signal_owner{nullptr};
// SIGPROF handlers between their owner load and their last touch of
// the owner's table.  stop() clears the owner and then waits for this
// to reach zero, so no handler can still be recording into a profiler
// that is being destroyed.  Both sides use seq_cst: a handler that
// enters after stop() read zero is ordered after the owner was cleared.
std::atomic<int> g_handlers_in_flight{0};

constexpr const char* kUnregisteredName = "(unregistered)";

void sigprof_handler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  // Async-signal-safe: save errno, touch only atomics and the ucontext.
  const int saved_errno = errno;
  g_handlers_in_flight.fetch_add(1);
  Profiler* profiler = g_signal_owner.load();
  if (profiler != nullptr) profiler->record_signal_sample(ucontext);
  g_handlers_in_flight.fetch_sub(1);
  errno = saved_errno;
}

// Extract the interrupted pc and frame pointer from the signal's
// ucontext.  Unknown architectures yield nulls — the sample then
// carries tags only (the graceful no-frame fallback).
void interrupted_registers(void* ucontext, void** pc, void** fp) noexcept {
  *pc = nullptr;
  *fp = nullptr;
  if (ucontext == nullptr) return;
  auto* uc = static_cast<ucontext_t*>(ucontext);
#if defined(__x86_64__) && defined(__linux__)
  *pc = reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
  *fp = reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__) && defined(__linux__)
  *pc = reinterpret_cast<void*>(uc->uc_mcontext.pc);
  *fp = reinterpret_cast<void*>(uc->uc_mcontext.regs[29]);
#else
  (void)uc;
#endif
}

// Frame-pointer chain walk with address-sanity rails.  Each frame is
// [saved fp, return address]; the walk stops the moment anything looks
// off (unaligned, outside this thread's stack, not strictly moving
// toward the stack base, depth cap).  When the code was built without
// frame pointers this degrades — by design — to the single interrupted
// pc captured by the caller.
std::uint32_t walk_frames(void* fp, const void* stack_lo,
                          const void* stack_hi, void** out,
                          std::uint32_t out_start) noexcept {
  std::uint32_t n = out_start;
  const auto in_stack = [&](void* p) noexcept {
    // The walk reads frame[0] and frame[1]; both must sit inside the
    // thread's stack mapping.
    return p > stack_lo &&
           p <= static_cast<const void*>(
                    static_cast<const char*>(stack_hi) - 2 * sizeof(void*)) &&
           (reinterpret_cast<std::uintptr_t>(p) & (sizeof(void*) - 1)) == 0;
  };
  while (n < kMaxFrames && in_stack(fp)) {
    void* const* frame = static_cast<void* const*>(fp);
    void* ret = frame[1];
    // Return addresses live in mapped code, far from page zero.
    if (reinterpret_cast<std::uintptr_t>(ret) < 0x10000) break;
    out[n++] = ret;
    void* next = frame[0];
    if (next <= fp) break;  // frames must move strictly toward the base
    fp = next;
  }
  return n;
}

std::string symbolize(void* address) {
  Dl_info info;
  if (dladdr(address, &info) != 0 && info.dli_sname != nullptr) {
    return info.dli_sname;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(address)));
  return buf;
}

}  // namespace

ThreadCtx& this_thread_ctx() noexcept {
  thread_local ThreadCtx ctx;
  return ctx;
}

// ------------------------------------------------------------ registry

ThreadRegistry& ThreadRegistry::instance() {
  static ThreadRegistry registry;
  return registry;
}

int ThreadRegistry::register_current(ThreadCtx* ctx) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    if (slots_[i].ctx == nullptr) {
      slots_[i].ctx = ctx;
      slots_[i].thread = pthread_self();
      high_water_ = std::max(high_water_, i + 1);
      return static_cast<int>(i);
    }
  }
  return -1;  // table full: the thread goes unprofiled, nothing breaks
}

void ThreadRegistry::unregister(int slot) {
  if (slot < 0) return;
  // Taking the walk mutex here is the unregistration-safety contract:
  // once this returns, no sampler pass can read the ctx or signal the
  // thread again, so the handle's thread may exit immediately after.
  std::lock_guard lock(mutex_);
  slots_[static_cast<std::size_t>(slot)].ctx = nullptr;
}

void ThreadRegistry::for_each(
    const std::function<void(ThreadCtx&, pthread_t)>& fn) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < high_water_; ++i) {
    if (slots_[i].ctx != nullptr) fn(*slots_[i].ctx, slots_[i].thread);
  }
}

std::size_t ThreadRegistry::size() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < high_water_; ++i) {
    if (slots_[i].ctx != nullptr) ++n;
  }
  return n;
}

ThreadHandle::ThreadHandle(const char* name, std::uint32_t index) noexcept {
  ThreadCtx& ctx = this_thread_ctx();
  ctx.index = index;
  ctx.stack_lo = nullptr;
  ctx.stack_hi = nullptr;
#if defined(__GLIBC__)
  // Stack bounds bound the frame walk; without them the handler keeps
  // to the single interrupted-pc frame.
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
      ctx.stack_lo = base;
      ctx.stack_hi = static_cast<char*>(base) + size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
  ctx.name.store(name, std::memory_order_release);
  slot_ = ThreadRegistry::instance().register_current(&ctx);
}

ThreadHandle::~ThreadHandle() {
  ThreadRegistry::instance().unregister(slot_);
  this_thread_ctx().name.store(nullptr, std::memory_order_release);
}

// ------------------------------------------------------------ profiler

// One slot of the lock-free aggregation table.  Claim protocol: CAS
// hash 0 -> 1 (claim sentinel), write the payload plainly, then publish
// the real hash with a release store.  Matching inserters fetch_add the
// count only after loading the published hash (acquire), so a reader
// that sees hash > 1 also sees a complete payload.  A thread that finds
// the claim sentinel probes onward — duplicate buckets for one logical
// key are possible and merged at snapshot time.
struct Profiler::TableSlot {
  std::atomic<std::uint64_t> hash{0};  // 0 empty, 1 claimed, else key
  std::atomic<std::uint64_t> count{0};
  SampleKind kind = SampleKind::kWall;
  std::uint32_t n_tags = 0;
  std::uint32_t n_frames = 0;
  const char* thread_name = nullptr;
  const char* tags[kMaxTagDepth];
  void* frames[kMaxFrames];
};

Profiler::Profiler() : table_(new TableSlot[kTableSlots]) {}

Profiler::~Profiler() { stop(); }

void Profiler::record(SampleKind kind, const char* thread_name,
                      const char* const* tags, std::uint32_t n_tags,
                      void* const* frames, std::uint32_t n_frames) noexcept {
  n_tags = std::min<std::uint32_t>(n_tags, kMaxTagDepth);
  n_frames = std::min<std::uint32_t>(n_frames, kMaxFrames);
  std::uint64_t h =
      util::mix64(reinterpret_cast<std::uintptr_t>(thread_name) ^
                  (static_cast<std::uint64_t>(kind) << 1));
  for (std::uint32_t i = 0; i < n_tags; ++i) {
    h = util::mix64(h ^ reinterpret_cast<std::uintptr_t>(tags[i]));
  }
  for (std::uint32_t i = 0; i < n_frames; ++i) {
    h = util::mix64(h ^ reinterpret_cast<std::uintptr_t>(frames[i]));
  }
  if (h < 2) h = 2;  // 0 = empty, 1 = claim sentinel

  for (std::size_t probe = 0; probe < kProbeLimit; ++probe) {
    TableSlot& slot = table_[(h + probe) & (kTableSlots - 1)];
    std::uint64_t seen = slot.hash.load(std::memory_order_acquire);
    if (seen == h) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (seen == 0) {
      std::uint64_t expected = 0;
      if (slot.hash.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        slot.kind = kind;
        slot.thread_name = thread_name;
        slot.n_tags = n_tags;
        slot.n_frames = n_frames;
        for (std::uint32_t i = 0; i < n_tags; ++i) slot.tags[i] = tags[i];
        for (std::uint32_t i = 0; i < n_frames; ++i) {
          slot.frames[i] = frames[i];
        }
        slot.count.store(1, std::memory_order_relaxed);
        slot.hash.store(h, std::memory_order_release);
        return;
      }
      if (expected == h) {  // lost the claim to the same key
        slot.count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Claimed by a different key mid-probe: fall through, probe on.
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

void Profiler::sample_here(SampleKind kind) noexcept {
  ThreadCtx& ctx = this_thread_ctx();
  const char* name = ctx.name.load(std::memory_order_acquire);
  if (name == nullptr) name = kUnregisteredName;
  const std::uint32_t depth =
      std::min<std::uint32_t>(ctx.tag_depth.load(std::memory_order_acquire),
                              kMaxTagDepth);
  const char* tags[kMaxTagDepth];
  for (std::uint32_t i = 0; i < depth; ++i) {
    tags[i] = ctx.tags[i].load(std::memory_order_relaxed);
  }
  record(kind, name, tags, depth, nullptr, 0);
  if (kind == SampleKind::kWall) {
    wall_samples_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Profiler::record_signal_sample(void* ucontext) noexcept {
  ThreadCtx& ctx = this_thread_ctx();
  const char* name = ctx.name.load(std::memory_order_relaxed);
  if (name == nullptr) name = kUnregisteredName;
  const std::uint32_t depth =
      std::min<std::uint32_t>(ctx.tag_depth.load(std::memory_order_relaxed),
                              kMaxTagDepth);
  const char* tags[kMaxTagDepth];
  for (std::uint32_t i = 0; i < depth; ++i) {
    tags[i] = ctx.tags[i].load(std::memory_order_relaxed);
  }
  void* frames[kMaxFrames];
  std::uint32_t n_frames = 0;
  void* pc = nullptr;
  void* fp = nullptr;
  interrupted_registers(ucontext, &pc, &fp);
  if (pc != nullptr) frames[n_frames++] = pc;
  if (fp != nullptr && ctx.stack_lo != nullptr) {
    n_frames = walk_frames(fp, ctx.stack_lo, ctx.stack_hi, frames, n_frames);
  }
  record(SampleKind::kCpu, name, tags, depth, frames, n_frames);
}

void Profiler::wall_tick() {
  ThreadRegistry::instance().for_each([this](ThreadCtx& ctx,
                                             pthread_t thread) {
    const char* name = ctx.name.load(std::memory_order_acquire);
    if (name == nullptr) name = kUnregisteredName;
    const std::uint32_t depth = std::min<std::uint32_t>(
        ctx.tag_depth.load(std::memory_order_acquire), kMaxTagDepth);
    const char* tags[kMaxTagDepth];
    for (std::uint32_t i = 0; i < depth; ++i) {
      tags[i] = ctx.tags[i].load(std::memory_order_relaxed);
    }
    record(SampleKind::kWall, name, tags, depth, nullptr, 0);
    wall_samples_.fetch_add(1, std::memory_order_relaxed);
    if (owns_signals_) {
      // The registry mutex (held by for_each) is what makes this safe:
      // the target cannot unregister-and-exit mid-kill.
      pthread_kill(thread, SIGPROF);
    }
  });
}

void Profiler::sampler_loop() {
  while (running_.load(std::memory_order_acquire)) {
    wall_tick();
    if (config_.sleep) {
      config_.sleep(config_.wall_period);
    } else {
      std::unique_lock lock(stop_mutex_);
      stop_cv_.wait_for(lock, config_.wall_period,
                        [this] { return stop_requested_; });
    }
  }
}

void Profiler::start(ProfilerConfig config) {
  stop();
  config_ = std::move(config);
  {
    std::lock_guard lock(stop_mutex_);
    stop_requested_ = false;
  }
  Profiler* expected = nullptr;
  owns_signals_ = g_signal_owner.compare_exchange_strong(
      expected, this, std::memory_order_acq_rel);
  if (owns_signals_) {
    struct sigaction action{};
    action.sa_sigaction = &sigprof_handler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    itimerval timer{};
    timer.it_interval.tv_sec =
        static_cast<time_t>(kCpuInterval.count() / 1'000'000);
    timer.it_interval.tv_usec =
        static_cast<suseconds_t>(kCpuInterval.count() % 1'000'000);
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);
  }
  running_.store(true, std::memory_order_release);
  sampler_ = std::thread([this] { sampler_loop(); });
}

void Profiler::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  if (owns_signals_) {
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    // Keep the (idempotent, owner-checked) handler installed: a signal
    // already in flight must land on a handler, not SIG_DFL (which
    // kills the process).  Clearing the owner makes it a no-op; a
    // handler that loaded the owner before that finishes first.
    g_signal_owner.store(nullptr);
    while (g_handlers_in_flight.load() != 0) std::this_thread::yield();
    owns_signals_ = false;
  }
}

std::uint64_t Profiler::dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

namespace {

// Deterministic sample order: kind, thread name (by content), tag path,
// then raw frame addresses (absent in tag-only profiles, so those sort
// reproducibly across runs).
bool sample_less(const Sample& a, const Sample& b) noexcept {
  if (a.kind != b.kind) return a.kind < b.kind;
  const int name_cmp = std::strcmp(a.thread_name, b.thread_name);
  if (name_cmp != 0) return name_cmp < 0;
  const std::uint32_t n_tags = std::min(a.n_tags, b.n_tags);
  for (std::uint32_t i = 0; i < n_tags; ++i) {
    const int c = std::strcmp(a.tags[i], b.tags[i]);
    if (c != 0) return c < 0;
  }
  if (a.n_tags != b.n_tags) return a.n_tags < b.n_tags;
  const std::uint32_t n_frames = std::min(a.n_frames, b.n_frames);
  for (std::uint32_t i = 0; i < n_frames; ++i) {
    if (a.frames[i] != b.frames[i]) return a.frames[i] < b.frames[i];
  }
  return a.n_frames < b.n_frames;
}

bool sample_key_equal(const Sample& a, const Sample& b) noexcept {
  if (a.kind != b.kind || a.n_tags != b.n_tags || a.n_frames != b.n_frames ||
      std::strcmp(a.thread_name, b.thread_name) != 0) {
    return false;
  }
  for (std::uint32_t i = 0; i < a.n_tags; ++i) {
    if (std::strcmp(a.tags[i], b.tags[i]) != 0) return false;
  }
  for (std::uint32_t i = 0; i < a.n_frames; ++i) {
    if (a.frames[i] != b.frames[i]) return false;
  }
  return true;
}

}  // namespace

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot out;
  out.dropped = dropped_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kTableSlots; ++i) {
    const TableSlot& slot = table_[i];
    const std::uint64_t hash = slot.hash.load(std::memory_order_acquire);
    if (hash < 2) continue;  // empty or still being claimed
    Sample sample;
    sample.kind = slot.kind;
    sample.thread_name = slot.thread_name;
    sample.n_tags = slot.n_tags;
    sample.n_frames = slot.n_frames;
    for (std::uint32_t t = 0; t < slot.n_tags; ++t) {
      sample.tags[t] = slot.tags[t];
    }
    for (std::uint32_t f = 0; f < slot.n_frames; ++f) {
      sample.frames[f] = slot.frames[f];
    }
    sample.count = slot.count.load(std::memory_order_relaxed);
    if (sample.count > 0) out.samples.push_back(sample);
  }
  std::sort(out.samples.begin(), out.samples.end(), &sample_less);
  // Merge duplicate buckets (distinct slots claimed for one key when a
  // claim raced) into one deterministic entry.
  std::vector<Sample> merged;
  for (const Sample& sample : out.samples) {
    if (!merged.empty() && sample_key_equal(merged.back(), sample)) {
      merged.back().count += sample.count;
    } else {
      merged.push_back(sample);
    }
  }
  out.samples = std::move(merged);
  return out;
}

ProfileSnapshot Profiler::diff(const ProfileSnapshot& before,
                               const ProfileSnapshot& after) {
  ProfileSnapshot out;
  out.dropped = after.dropped - before.dropped;
  // Both inputs are sorted by the same deterministic order; one merge
  // pass subtracts the earlier counts.
  std::size_t b = 0;
  for (const Sample& sample : after.samples) {
    while (b < before.samples.size() &&
           sample_less(before.samples[b], sample)) {
      ++b;
    }
    Sample delta = sample;
    if (b < before.samples.size() &&
        sample_key_equal(before.samples[b], sample)) {
      delta.count -= before.samples[b].count;
    }
    if (delta.count > 0) out.samples.push_back(delta);
  }
  return out;
}

std::string Profiler::render_collapsed(const ProfileSnapshot& snapshot,
                                       bool symbolize_frames) {
  std::string out;
  out.reserve(snapshot.samples.size() * 64);
  for (const Sample& sample : snapshot.samples) {
    std::string line = sample.thread_name;
    line += sample.kind == SampleKind::kCpu ? ";(cpu)" : ";(wall)";
    for (std::uint32_t t = 0; t < sample.n_tags; ++t) {
      line += ';';
      line += sample.tags[t];
    }
    // flamegraph.pl wants root-first; frames were captured leaf-first.
    for (std::uint32_t f = sample.n_frames; f > 0; --f) {
      line += ';';
      if (symbolize_frames) {
        line += symbolize(sample.frames[f - 1]);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(
                          reinterpret_cast<std::uintptr_t>(
                              sample.frames[f - 1])));
        line += buf;
      }
    }
    line += ' ';
    line += std::to_string(sample.count);
    line += '\n';
    out += line;
  }
  // Symbolized lines can collide (two pcs in one function) and need a
  // final stable ordering pass for deterministic output.
  if (!out.empty()) {
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < out.size()) {
      const std::size_t eol = out.find('\n', pos);
      lines.push_back(out.substr(pos, eol - pos));
      pos = eol + 1;
    }
    std::sort(lines.begin(), lines.end());
    out.clear();
    for (const std::string& line : lines) {
      out += line;
      out += '\n';
    }
  }
  if (snapshot.dropped > 0) {
    out += "(dropped) " + std::to_string(snapshot.dropped) + "\n";
  }
  return out;
}

namespace {

struct TagNode {
  std::string name;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
  std::vector<TagNode> children;  // kept sorted by name

  TagNode& child(const char* child_name) {
    const auto it = std::lower_bound(
        children.begin(), children.end(), child_name,
        [](const TagNode& node, const char* n) { return node.name < n; });
    if (it != children.end() && it->name == child_name) return *it;
    return *children.insert(it, TagNode{child_name, 0, 0, {}});
  }
};

void render_node(const TagNode& node, std::string& out) {
  out += "{\"name\": \"" + node.name + "\", \"self\": " +
         std::to_string(node.self) + ", \"total\": " +
         std::to_string(node.total);
  if (!node.children.empty()) {
    out += ", \"children\": [";
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) out += ", ";
      render_node(node.children[i], out);
    }
    out += "]";
  }
  out += "}";
}

}  // namespace

std::string Profiler::render_tag_tree_json(const ProfileSnapshot& snapshot) {
  TagNode root{"all", 0, 0, {}};
  for (const Sample& sample : snapshot.samples) {
    root.total += sample.count;
    TagNode* node = &root;
    for (std::uint32_t t = 0; t < sample.n_tags; ++t) {
      node = &node->child(sample.tags[t]);
      node->total += sample.count;
    }
    node->self += sample.count;
  }
  std::string out;
  render_node(root, out);
  out += "\n";
  return out;
}

// ------------------------------------------------- allocation counting

namespace {
std::atomic<bool> g_alloc_hook_linked{false};
std::atomic<bool> g_alloc_counting{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

bool alloc_hook_linked() noexcept {
  return g_alloc_hook_linked.load(std::memory_order_acquire);
}

void set_alloc_counting(bool enabled) noexcept {
  g_alloc_counting.store(enabled, std::memory_order_release);
}

bool alloc_counting() noexcept {
  return g_alloc_counting.load(std::memory_order_acquire);
}

AllocCounts alloc_counts() noexcept {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

namespace detail {

void mark_alloc_hook_linked() noexcept {
  g_alloc_hook_linked.store(true, std::memory_order_release);
}

void note_allocation(std::size_t bytes) noexcept {
  if (!g_alloc_counting.load(std::memory_order_relaxed)) return;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace bp::obs::prof
