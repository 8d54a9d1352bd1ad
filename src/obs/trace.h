// Lightweight structured tracing: spans with monotonic timestamps and
// explicit parent ids, recorded into a bounded in-memory ring — no I/O
// and no allocation on the hot path.
//
// Sampling is deterministic and replayable: whether a trace id is kept
// is a pure function of (sink seed, trace id) via util::IdSampler, the
// same pre-split-stream construction the parallel training paths use.  The
// same seed therefore samples the same trace ids no matter how many
// threads record, in what order, or how often the workload is re-run —
// a sampled-away trace can always be recovered by re-running with the
// same seed and a higher rate.
//
// Determinism contract (pinned by ObsTrace tests): with quiescent
// writers, `render(/*include_timing=*/false)` is byte-identical across
// runs and thread counts provided the same spans were recorded and the
// ring did not overflow — events are keyed by (trace_id, span_id),
// both of which callers assign deterministically, and rendering sorts
// by that key.  Timestamps are real monotonic-clock readings and are
// only emitted when include_timing is requested.
//
// Span-id convention: ids are unique within one trace and assigned by
// the instrumented code (the request path uses 1 = root "request",
// 2 = "queue_wait", 3 = terminal stage; the retrain cycle and training
// pipeline document theirs alongside their instrumentation).  parent_id
// 0 marks a root span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/ring.h"
#include "util/rng.h"

namespace bp::obs {

// Microseconds on the steady clock — the timestamp base of every span.
inline std::int64_t steady_now_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TraceEvent {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;    // unique within the trace, caller-assigned
  std::uint32_t parent_id = 0;  // 0 = root span
  const char* name = "";        // must have static storage duration
  std::int64_t start_us = 0;    // steady_now_us() at span start
  std::int64_t end_us = 0;      // steady_now_us() at span end
};

struct TraceSinkConfig {
  std::size_t capacity = 8192;  // ring slots; oldest events overwritten
  double sample_rate = 1.0;     // fraction of trace ids kept, in [0, 1]
  std::uint64_t seed = 0x9d2c5680;
};

class TraceSink {
 public:
  explicit TraceSink(TraceSinkConfig config = {});

  // Deterministic head-sampling decision for a trace id: pure in
  // (seed, trace_id), identical on every thread and every run.
  bool sampled(std::uint64_t trace_id) const noexcept {
    return sampler_.keep(trace_id);
  }

  // Record one finished span.  Drops (cheaply, before the lock) events
  // of unsampled traces; overwrites the oldest event when full.
  void record(const TraceEvent& event);

  // Record one finished span unconditionally, bypassing the local
  // head-sampling decision.  For spans of a trace whose sampling was
  // decided upstream (an adopted cross-hop context): the whole trace
  // must land or none of it, regardless of what this sink's own seed
  // would have decided for the id.
  void record_forced(const TraceEvent& event);

  // Snapshot of the ring in (trace_id, span_id) order.  trace_filter
  // != 0 keeps only that trace id's events; limit != 0 keeps only the
  // most recent `limit` matching events (recording order, before the
  // sort) — the /tracez?trace=<id>&n=K surface.
  std::vector<TraceEvent> events(std::uint64_t trace_filter = 0,
                                 std::size_t limit = 0) const;

  // One line per events(trace_filter, limit) event:
  //   trace=<id> span=<id> parent=<id> name=<name> [start=<us> end=<us>]
  // With include_timing=false the output is a pure function of the
  // recorded (trace, span, parent, name) tuples — the determinism
  // surface the tests byte-compare.
  std::string render(bool include_timing = true,
                     std::uint64_t trace_filter = 0,
                     std::size_t limit = 0) const;

  std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  // Events overwritten by ring wrap-around (recorded but no longer
  // retrievable).
  std::uint64_t overwritten() const noexcept {
    return overwritten_.load(std::memory_order_relaxed);
  }

  const TraceSinkConfig& config() const noexcept { return config_; }

  void clear();

 private:
  TraceSinkConfig config_;
  util::IdSampler sampler_;
  mutable std::mutex mutex_;
  Ring<TraceEvent> ring_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> overwritten_{0};
};

// Shared context threaded through layers that optionally report into
// the observability plane (e.g. Polygraph::train).  All members may be
// null — instrumentation then compiles down to skipped branches.
class MetricsRegistry;
struct ObsContext {
  MetricsRegistry* registry = nullptr;
  TraceSink* trace = nullptr;
  std::uint64_t trace_id = 1;  // trace id for this operation's spans
};

}  // namespace bp::obs
